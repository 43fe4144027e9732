/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double tol;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.tol = &tol;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", tol);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*tol);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*tol) = __a->tol;
    {
        double mine;
        /* single: conventional SDSM translation (Fig. 3 left):
           lock + shared flag + barrier */
        sdsm_lock(0);
        if (!sdsm_flag_test_and_set(0)) {
            {
                (*tol) = 0.5;
            }
        }
        sdsm_unlock(0);
        sdsm_barrier();
        mine = ((*tol) * 2.0);
    }
}

