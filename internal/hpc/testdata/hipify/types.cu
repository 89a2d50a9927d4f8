#include <cuda_runtime.h>

cudaStream_t g_stream;

__global__ void scale(int n, float *a) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) a[i] = a[i] * 2.0f;
}

cudaError_t launch(cudaStream_t s, cudaEvent_t *ev, cudaEvent_t evs[], const cudaStream_t cs, int n, float *d) {
	cudaEvent_t start, stop;
	cudaStream_t *sp = &s;
	cudaEvent_t marks[4];
	cudaEventCreate(&start);
	cudaEventCreate(&stop);
	scale<<<n / 256, 256>>>(n, d);
	scale<<<n / 256, 256, 0>>>(n, d);
	scale<<<n / 256, 256, 0, cs>>>(n, d);
	cudaEventRecord(stop, *sp);
	return cudaSuccess;
}
