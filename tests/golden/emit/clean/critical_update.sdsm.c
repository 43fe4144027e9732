/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double sum;
    sum = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.sum = &sum;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", sum);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*sum);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*sum) = __a->sum;
    {
        double local;
        local = 1.0;
        /* critical: conventional SDSM lock (Fig. 2 left) */
        sdsm_lock(0);
        {
            (*sum) = ((*sum) + local);
        }
        sdsm_unlock(0);
    }
}

