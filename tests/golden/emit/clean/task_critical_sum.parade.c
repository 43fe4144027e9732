/* translated by paradec — ParADE hybrid runtime */
#include "parade_rt.h"
#include <pthread.h>

int main(void)
{
    double sum;
    sum = 0.0;
    /* parallel region 0: fork-join via the ParADE runtime */
    {
        struct __parade_region_0_args __a0;
        __a0.sum = &sum;
        parade_parallel(__parade_region_0, &__a0);
    }
    printf("%f\n", sum);
    return 0;
}


/* ---- extracted parallel regions ---- */
struct __parade_region_0_args {
    double (*sum);
};
static void __parade_region_0(void *__arg)
{
    struct __parade_region_0_args *__a = (struct __parade_region_0_args *)__arg;
    double (*sum) = __a->sum;
    {
        /* task: serial elision (undeferred execution) */
        {
            /* critical: lexically analyzable, small data ->
               hierarchical pthread lock + collective update (Fig. 2) */
            pthread_mutex_lock(&__parade_node_mutex);
            __parade_local_acc_double(&sum, PARADE_SUM, 1.0);
            pthread_mutex_unlock(&__parade_node_mutex);
            parade_allreduce_double(&sum, PARADE_SUM);
        }
        /* taskwait: no-op under serial elision */
    }
}

