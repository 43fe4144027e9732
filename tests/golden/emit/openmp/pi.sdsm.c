/* translated by paradec — conventional SDSM runtime */
#include <stdio.h>
#include "sdsm_rt.h"

int main(void)
{
    int i;
    int n;
    double h;
    double x;
    double pi;
    n = 8192;
    h = (1.0 / n);
    pi = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.h = &h;
        __a0.n = &n;
        __a0.pi = &pi;
        parade_parallel(__parade_region_0, &__a0);
    }
    pi = (pi * h);
    printf("pi ~= %.8f\n", pi);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*h);
    int (*n);
    double (*pi);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*h) = __a->h;
    int (*n) = __a->n;
    double (*pi) = __a->pi;
    int i;  /* private */
    double x;  /* private */
    double pi__red = 0.0;  /* reduction(+) local */
    {
        long __lo, __hi;
        parade_loop_static(0, (*n), &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            x = ((*h) * (i + 0.5));
            pi__red += (4.0 / (1.0 + (x * x)));
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(0);
    *pi = *pi + pi__red;
    sdsm_unlock(0);
    sdsm_barrier();
}

