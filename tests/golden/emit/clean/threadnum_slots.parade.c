/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double slot[16];
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.slot = &slot;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", slot[0]);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*slot)[16];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*slot)[16] = __a->slot;
    {
        (*slot)[omp_get_thread_num()] = 1.0;
    }
}

