/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    int i;
    int j;
    double a[64];
    double b[64];
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.a = &a;
        __a0.b = &b;
        __a0.i = &i;
        __a0.j = &j;
        parade_parallel(__parade_region_0, &__a0);
    }
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*a)[64];
    double (*b)[64];
    int (*i);
    int (*j);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*a)[64] = __a->a;
    double (*b)[64] = __a->b;
    int (*i) = __a->i;
    int (*j) = __a->j;
    {
        {
            long __lo, __hi;
            parade_loop_static(0, 64, &__lo, &__hi);  /* static schedule */
            for (i = __lo; i < __hi; i += 1)
            {
                (*a)[(*i)] = (1.0 * (*i));
            }
        }
        {
            long __lo, __hi;
            parade_loop_static(0, 64, &__lo, &__hi);  /* static schedule */
            for (j = __lo; j < __hi; j += 1)
            {
                (*b)[(*j)] = (*a)[(63 - (*j))];
            }
        }
        parade_barrier();  /* implicit barrier of omp for */
    }
}

