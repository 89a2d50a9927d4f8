void acc_kernel_0(int n, double *a, double *b) {
#pragma acc parallel loop copyin(b[0:n]) copyout(a[0:n])
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
	b[1] = a[1];
}

void acc_kernel_1(int n, double *a, double *b) {
#pragma acc parallel loop reduction(+:s) collapse(2)
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
	b[1] = a[1];
}

void acc_kernel_2(int n, double *a, double *b) {
#pragma acc kernels copy(a[0:n])
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
	b[1] = a[1];
}

void acc_kernel_3(int n, double *a, double *b) {
#pragma acc kernels copy(a[0:n])
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
	b[1] = a[1];
}

void acc_kernel_4(int n, double *a, double *b) {
#pragma acc kernels copy(a[0:n])
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
	b[1] = a[1];
}

void acc_kernel_5(int n, double *a, double *b) {
#pragma acc parallel loop reduction(+:s) collapse(2)
	for (int i = 0; i < n; ++i)
		a[i] = b[i] + a[i];
	b[0] = a[0];
	b[1] = a[1];
}

