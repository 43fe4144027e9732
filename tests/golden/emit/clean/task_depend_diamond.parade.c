/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double x;
    double y;
    double z;
    x = 1.0;
    y = 0.0;
    z = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.x = &x;
        __a0.y = &y;
        __a0.z = &z;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", z);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*x);
    double (*y);
    double (*z);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*x) = __a->x;
    double (*y) = __a->y;
    double (*z) = __a->z;
    {
        /* task depend(out:x): program order subsumes the edges */
        {
            (*x) = 2.0;
        }
        /* task depend(in:x, out:y): program order subsumes the edges */
        {
            (*y) = ((*x) + 1.0);
        }
        /* task depend(in:y, out:z): program order subsumes the edges */
        {
            (*z) = ((*y) + 1.0);
        }
        /* taskwait: no-op under serial elision */
    }
}

