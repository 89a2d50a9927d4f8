#include <cuda_runtime.h>

__global__ void dev_scale(int n, float *a) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) a[i] = a[i] * 2.0f;
}

int run(int n, float *d_a) {
	cudaStream_t stream;
	cudaError_t err = cudaMalloc((void **)&d_a, n * sizeof(float));
	if (err != cudaSuccess) return 1;
	dev_scale<<<(n + 255) / 256, 256, 0, stream>>>(n, d_a);
	cudaStreamSynchronize(stream);
	cudaFree(d_a);
	return 0;
}
