/* translated by paradec — conventional SDSM runtime */
#include "sdsm_rt.h"

int main(void)
{
    int i;
    long s;
    s = 0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.s = &s;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%ld\n", s);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    long (*s);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    long (*s) = __a->s;
    int i;  /* private */
    long s__red = 0;  /* reduction(+) local */
    {
        long __lo, __hi;
        parade_loop_static(0, 8, &__lo, &__hi);  /* static schedule */
        for (i = __lo; i < __hi; i += 1)
        {
            s__red = (s__red + 9007199254740993);
        }
    }
    sdsm_barrier();  /* implicit barrier of omp for */
    sdsm_lock(0);
    *s = *s + s__red;
    sdsm_unlock(0);
    sdsm_barrier();
}

