/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double tol;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.tol = &tol;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", tol);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*tol);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*tol) = __a->tol;
    {
        double mine;
        /* single: small shared data -> pthread lock +
           broadcast, no barrier (Fig. 3) */
        pthread_mutex_lock(&__parade_node_mutex);
        if (parade_single_begin(0)) {
            if (parade_node() == 0)
            {
                (*tol) = 0.5;
            }
            parade_bcast(&tol, sizeof(tol), 0);
            parade_single_end(0);
        }
        pthread_mutex_unlock(&__parade_node_mutex);
        mine = ((*tol) * 2.0);
    }
}

