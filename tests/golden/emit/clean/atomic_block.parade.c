/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

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
    printf("%f\n", x);
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
        parade_atomic_double(&x, PARADE_SUM, 2.0);  /* atomic -> collective */
    }
}

