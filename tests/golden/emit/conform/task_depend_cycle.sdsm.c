/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double x;
    double y;
    x = 0.0;
    y = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.x = &x;
        __a0.y = &y;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*x);
    double (*y);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*x) = __a->x;
    double (*y) = __a->y;
    {
        /* task depend(in:y, out:x): program order subsumes the edges */
        {
            (*x) = ((*y) + 1.0);
        }
        /* task depend(in:x, out:y): program order subsumes the edges */
        {
            (*y) = ((*x) + 1.0);
        }
        /* taskwait: no-op under serial elision */
    }
}

