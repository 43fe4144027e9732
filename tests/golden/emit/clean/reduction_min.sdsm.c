/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double m;
    double a[64];
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.a = &a;
        parade_parallel(__parade_region_0, &__a0);
    }
    m = 1000000000000000000000000000000.0;
    /* parallel region 1: fork-join via the ParADE runtime */
    {
        struct __parade_region_1_args __a1;
        __a1.a = &a;
        __a1.m = &m;
        parade_parallel(__parade_region_1, &__a1);
    }
    printf("%f\n", m);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*a)[64];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a)[64] = __a->a;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(0, 64, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*a)[i] = (100.0 - i);
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
}

struct __parade_region_1_args {
    double (*a)[64];
    double (*m);
};
static void __parade_region_1(void *__arg)
{
    struct __parade_region_1_args *__a = (struct __parade_region_1_args *)__arg;
    double (*a)[64] = __a->a;
    double (*m) = __a->m;
    int i;  /* private */
    double m__red = INFINITY;  /* reduction(min) local */
    {
        long __lo, __hi;
        parade_loop_static(0, 64, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            m__red = fmin(m__red, (*a)[i]);
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(0);
    *m = fmin(*m, m__red);
    sdsm_unlock(0);
    sdsm_barrier();
}

