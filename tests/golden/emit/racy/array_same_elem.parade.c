/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double a[8];
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
    double (*a)[8];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a)[8] = __a->a;
    {
        (*a)[0] = (1.0 * omp_get_thread_num());
    }
}

