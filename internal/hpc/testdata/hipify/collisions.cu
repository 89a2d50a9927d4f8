void f(void) {
	int cudaMalloc = 3;            // a (terrible) local variable name
	const char *msg = "call cudaMalloc here";
	use(cudaMalloc, msg);
	cudaMalloc(&p, n);
}
