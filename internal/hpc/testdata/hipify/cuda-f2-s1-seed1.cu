#include <cuda_runtime.h>
#include <curand_kernel.h>

__global__ void dev_kernel_0(int n, double *a) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) a[i] = a[i] * 7.0;
}

int host_driver_0(int n, double *h_a) {
	double *d_a;
	cudaError_t err = cudaMalloc(&d_a, n * sizeof(double));
	if (err != cudaSuccess) return 1;
	cudaStream_t stream;
	cudaStreamCreate(&stream);
	cudaMemcpyAsync(d_a, h_a, n * sizeof(double), cudaMemcpyHostToDevice, stream);
	dev_kernel_0<<<gridOf(n), 256, 0, stream>>>(n, d_a);
	cudaMemcpy(h_a, d_a, n * sizeof(double), cudaMemcpyDeviceToHost);
	cudaStreamSynchronize(stream);
	cudaStreamDestroy(stream);
	cudaFree(d_a);
	return 0;
}

__global__ void dev_kernel_1(int n, double *a) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) a[i] = a[i] * 2.0;
}

int host_driver_1(int n, double *h_a) {
	double *d_a;
	cudaError_t err = cudaMalloc(&d_a, n * sizeof(double));
	if (err != cudaSuccess) return 1;
	cudaStream_t stream;
	cudaStreamCreate(&stream);
	cudaMemcpyAsync(d_a, h_a, n * sizeof(double), cudaMemcpyHostToDevice, stream);
	dev_kernel_1<<<gridOf(n), 256, 0, stream>>>(n, d_a);
	cudaMemcpy(h_a, d_a, n * sizeof(double), cudaMemcpyDeviceToHost);
	cudaStreamSynchronize(stream);
	cudaStreamDestroy(stream);
	cudaFree(d_a);
	return 0;
}

