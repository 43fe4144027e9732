/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    double a[64];
    a[0] = 1.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.a = &a;
        parade_parallel(__parade_region_0, &__a0);
    }
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
        parade_loop_static(1, 64, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*a)[i] = ((*a)[(i - 1)] + 1.0);
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
}

