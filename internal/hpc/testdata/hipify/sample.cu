#include <cuda_runtime.h>
#include <curand_kernel.h>

__global__ void scale(int n, double *a, double s) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) a[i] = s * a[i];
}

int run(int n) {
	double *d_a;
	cudaError_t err = cudaMalloc(&d_a, n * sizeof(double));
	if (err != cudaSuccess) return 1;
	cudaStream_t stream;
	cudaStreamCreate(&stream);
	cudaMemcpyAsync(d_a, h_a, n * sizeof(double), cudaMemcpyHostToDevice, stream);
	scale<<<grid, block, 0, stream>>>(n, d_a, 2.0);
	cudaStreamSynchronize(stream);
	cudaFree(d_a);
	return 0;
}
