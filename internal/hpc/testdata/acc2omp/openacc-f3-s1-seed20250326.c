void acc_kernel_0(int n, double *a, double *b) {
#pragma acc parallel loop copy(a[0:n])
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
}

void acc_kernel_1(int n, double *a, double *b) {
#pragma acc parallel loop reduction(+:s) collapse(2)
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
}

void acc_kernel_2(int n, double *a, double *b) {
#pragma acc parallel loop copy(a[0:n])
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
}

