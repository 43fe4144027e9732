/* translated by paradec — conventional SDSM runtime */
#include <stdio.h>
#include <math.h>
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double a[1024];
    double b[1024];
    double dot;
    double norm;
    double checks;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.a = &a;
        __a0.b = &b;
        parade_parallel(__parade_region_0, &__a0);
    }
    dot = 0.0;
    /* parallel region 1: fork-join via the ParADE runtime */
    {
        struct __parade_region_1_args __a1;
        __a1.a = &a;
        __a1.b = &b;
        __a1.dot = &dot;
        parade_parallel(__parade_region_1, &__a1);
    }
    norm = 0.0;
    /* parallel region 2: fork-join via the ParADE runtime */
    {
        struct __parade_region_2_args __a2;
        __a2.a = &a;
        __a2.norm = &norm;
        parade_parallel(__parade_region_2, &__a2);
    }
    checks = 0.0;
    /* parallel region 3: fork-join via the ParADE runtime */
    {
        struct __parade_region_3_args __a3;
        __a3.checks = &checks;
        parade_parallel(__parade_region_3, &__a3);
    }
    printf("dot = %.6f, max|a| = %.6f, threads = %.0f\n", dot, norm, checks);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*a)[1024];
    double (*b)[1024];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a)[1024] = __a->a;
    double (*b)[1024] = __a->b;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(0, 1024, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*a)[i] = (0.001 * i);
            (*b)[i] = (1.0 - (0.001 * i));
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
}

struct __parade_region_1_args {
    double (*a)[1024];
    double (*b)[1024];
    double (*dot);
};
static void __parade_region_1(void *__arg)
{
    struct __parade_region_1_args *__a = (struct __parade_region_1_args *)__arg;
    double (*a)[1024] = __a->a;
    double (*b)[1024] = __a->b;
    double (*dot) = __a->dot;
    int i;  /* private */
    double dot__red = 0.0;  /* reduction(+) local */
    {
        long __lo, __hi;
        parade_loop_static(0, 1024, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            dot__red += ((*a)[i] * (*b)[i]);
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(0);
    *dot = *dot + dot__red;
    sdsm_unlock(0);
    sdsm_barrier();
}

struct __parade_region_2_args {
    double (*a)[1024];
    double (*norm);
};
static void __parade_region_2(void *__arg)
{
    struct __parade_region_2_args *__a = (struct __parade_region_2_args *)__arg;
    double (*a)[1024] = __a->a;
    double (*norm) = __a->norm;
    int i;  /* private */
    double norm__red = -INFINITY;  /* reduction(max) local */
    {
        long __lo, __hi;
        parade_loop_static(0, 1024, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            norm__red = fmax(norm__red, fabs((*a)[i]));
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(1);
    *norm = fmax(*norm, norm__red);
    sdsm_unlock(1);
    sdsm_barrier();
}

struct __parade_region_3_args {
    double (*checks);
};
static void __parade_region_3(void *__arg)
{
    struct __parade_region_3_args *__a = (struct __parade_region_3_args *)__arg;
    double (*checks) = __a->checks;
    {
        /* critical: conventional SDSM lock (Fig. 2 left) */
        sdsm_lock(2);
        {
            (*checks) = ((*checks) + 1.0);
        }
        sdsm_unlock(2);
    }
}

