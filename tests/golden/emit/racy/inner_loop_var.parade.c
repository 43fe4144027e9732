/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    int i;
    int j;
    double b[32];
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.b = &b;
        __a0.j = &j;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*b)[32];
    int (*j);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*b)[32] = __a->b;
    int (*j) = __a->j;
    int i;  /* private */
    {
        long __lo, __hi;
        parade_loop_static(0, 32, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            (*b)[i] = 0.0;
            for ((*j) = 0; ((*j) < 4); (*j) += 1)
            {
                (*b)[i] = ((*b)[i] + 1.0);
            }
        }
    }
    parade_barrier();  /* implicit barrier of omp for */
}

