/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    double a[16];
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
    double (*a)[16];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a)[16] = __a->a;
    {
        /* parallel region 1: fork-join via the ParADE runtime */
        {
            struct __parade_region_1_args __a1;
            __a1.a = &a;
            parade_parallel(__parade_region_1, &__a1);
        }
    }
}

struct __parade_region_1_args {
    double (*a)[16];
};
static void __parade_region_1(void *__arg)
{
    struct __parade_region_1_args *__a = (struct __parade_region_1_args *)__arg;
    double (*a)[16] = __a->a;
    {
        (*a)[omp_get_thread_num()] = 1.0;
    }
}

