/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    int i;
    int j;
    double g[16][8];
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.g = &g;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*g)[16][8];
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*g)[16][8] = __a->g;
    int i;  /* private */
    int j;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(1, 16, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            for (j = 0; (j < 8); j += 1)
            {
                (*g)[i][j] = ((*g)[(i - 1)][j] * 0.5);
            }
        }
    }
    parade_barrier();  /* implicit barrier of omp for */
}

