/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

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
        parade_atomic_double(&lo, PARADE_MIN, (1.5 + omp_get_thread_num()));  /* atomic -> collective */
        parade_atomic_double(&hi, PARADE_MAX, (2.0 * omp_get_thread_num()));  /* atomic -> collective */
    }
}

