/* An integer reduction past 2^53: exact only if it reduces as a long,
   not as a double. Expected: clean, and 72057594037927944. */
int main() {
    int i;
    long s;
    s = 0;
    #pragma omp parallel for reduction(+ : s)
    for (i = 0; i < 8; i++) {
        s = s + 9007199254740993;
    }
    printf("%ld\n", s);
    return 0;
}
