/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double lo;
    double hi;
    lo = 100.0;
    hi = (-100.0);
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.hi = &hi;
        __a0.lo = &lo;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f %f\n", lo, hi);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*hi);
    double (*lo);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*hi) = __a->hi;
    double (*lo) = __a->lo;
    {
        sdsm_lock(0);
        (*lo) = fmin((*lo), (1.5 + omp_get_thread_num()));
        sdsm_unlock(0);
        sdsm_lock(1);
        (*hi) = fmax((2.0 * omp_get_thread_num()), (*hi));
        sdsm_unlock(1);
    }
}

