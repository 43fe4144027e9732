/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double n;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.n = &n;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", n);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*n);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*n) = __a->n;
    {
        double mine;
        if (parade_thread_num() == 0)
        {
            (*n) = 3.0;
        }
        parade_barrier();
        mine = ((*n) + 1.0);
    }
}

