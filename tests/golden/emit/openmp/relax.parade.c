/* translated by paradec — ParADE hybrid runtime */
#include <stdio.h>
#include <math.h>
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    int i;
    int it;
    double u[256];
    double unew[256];
    double err;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.u = &u;
        parade_parallel(__parade_region_0, &__a0);
    }
    u[0] = 1.0;
    u[255] = 1.0;
    for (it = 0; (it < 20); it += 1)
    {
        err = 0.0;
        /* parallel region 1: fork-join via the ParADE runtime */
        {
            struct __parade_region_1_args __a1;
            __a1.err = &err;
            __a1.u = &u;
            __a1.unew = &unew;
            parade_parallel(__parade_region_1, &__a1);
        }
        /* parallel region 2: fork-join via the ParADE runtime */
        {
            struct __parade_region_2_args __a2;
            __a2.u = &u;
            __a2.unew = &unew;
            parade_parallel(__parade_region_2, &__a2);
        }
    }
    printf("residual = %.6e\n", sqrt(err));
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*u)[256];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*u)[256] = __a->u;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(0, 256, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*u)[i] = 0.0;
        }
    }
    parade_barrier();  /* implicit barrier of omp for */
}

struct __parade_region_1_args {
    double (*err);
    double (*u)[256];
    double (*unew)[256];
};
static void __parade_region_1(void *__arg)
{
    struct __parade_region_1_args *__a = (struct __parade_region_1_args *)__arg;
    double (*err) = __a->err;
    double (*u)[256] = __a->u;
    double (*unew)[256] = __a->unew;
    int i;  /* private */
    double err__red = 0.0;  /* reduction(+) local */
    {
        long __lo, __hi;
        parade_loop_static(1, 255, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*unew)[i] = (0.5 * ((*u)[(i - 1)] + (*u)[(i + 1)]));
            err__red += (((*unew)[i] - (*u)[i]) * ((*unew)[i] - (*u)[i]));
        }
    }
    parade_barrier();  /* implicit barrier of omp for */
    parade_atomic_double(err, PARADE_SUM, err__red);  /* reduction -> collective */
}

struct __parade_region_2_args {
    double (*u)[256];
    double (*unew)[256];
};
static void __parade_region_2(void *__arg)
{
    struct __parade_region_2_args *__a = (struct __parade_region_2_args *)__arg;
    double (*u)[256] = __a->u;
    double (*unew)[256] = __a->unew;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(1, 255, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*u)[i] = (*unew)[i];
        }
    }
    parade_barrier();  /* implicit barrier of omp for */
}

