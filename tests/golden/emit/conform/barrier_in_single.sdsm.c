/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double x;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.x = &x;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*x);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*x) = __a->x;
    {
        /* single: conventional SDSM translation (Fig. 3 left):
           lock + shared flag + barrier */
        sdsm_lock(0);
        if (!sdsm_flag_test_and_set(0)) {
            {
                (*x) = 1.0;
                sdsm_barrier();
            }
        }
        sdsm_unlock(0);
        sdsm_barrier();
    }
}

