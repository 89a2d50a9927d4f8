#include <curand_kernel.h>
#include <cuda_fp16.h>

double sample_0(void *gen) {
	__half h;
	double d = curand_uniform_double(gen);
	d = d + curand_uniform_double(gen) * 1.0;
	return d;
}

double sample_1(void *gen) {
	__half h;
	double d = curand_uniform_double(gen);
	d = d + curand_uniform_double(gen) * 1.0;
	return d;
}

double sample_2(void *gen) {
	__half h;
	double d = curand_uniform_double(gen);
	d = d + curand_uniform_double(gen) * 1.0;
	return d;
}

double sample_3(void *gen) {
	__half h;
	double d = curand_uniform_double(gen);
	d = d + curand_uniform_double(gen) * 1.0;
	return d;
}

