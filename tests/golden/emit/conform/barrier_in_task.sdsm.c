/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double x;
    x = 0.0;
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
        /* task depend(out:x): program order subsumes the edges */
        {
            (*x) = 1.0;
            sdsm_barrier();
        }
        /* taskwait: no-op under serial elision */
    }
}

