int f(cudaStream_t s) {
	cudaStreamCaptureStatus st = cudaStreamCaptureStatusNone;
	cudaStreamBeginCapture(s, cudaStreamCaptureModeGlobal);
	cudaStreamIsCapturing(s, &st);
	cudaGraph_t g;
	cudaStreamEndCapture(s, &g);
	return 0;
}
