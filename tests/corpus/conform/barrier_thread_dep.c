/* Only thread 0 takes the branch holding the barrier.
 * Expected: PC009 (never run: deadlocks). */
int main() {
    #pragma omp parallel
    {
        if (omp_get_thread_num() == 0) {
            #pragma omp barrier
        }
    }
    return 0;
}
