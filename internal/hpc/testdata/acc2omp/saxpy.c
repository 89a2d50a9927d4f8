#include <stdio.h>
void saxpy(int n, float a, float *x, float *y) {
#pragma acc parallel loop copy(y[0:n]) copyin(x[0:n])
	for (int i = 0; i < n; ++i)
		y[i] = a * x[i] + y[i];
}
