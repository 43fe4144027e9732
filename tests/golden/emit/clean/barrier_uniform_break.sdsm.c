/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    int s;
    int n;
    n = 64;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.n = &n;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%d\n", n);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    int (*n);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    int (*n) = __a->n;
    int i;  /* private */
    int s;  /* private */
    {
        s = 0;
        for (i = 0; (i < 8); i = (i + 1))
        {
            if (((*n) > 32))
            {
                break;
            }
            sdsm_barrier();
            s = (s + 1);
        }
    }
}

