/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    int s;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    int i;  /* private */
    int s;  /* private */
    {
        s = 0;
        for (i = 0; (i < 8); i = (i + 1))
        {
            if ((omp_get_thread_num() > 0))
            {
                break;
            }
            sdsm_barrier();
            s = (s + 1);
        }
    }
}

