// The CUDA→HIP dictionaries the hipify campaign's member patches are
// generated from: functions, types, enumerators and headers, the paper's
// "Translation of very similar APIs" use case.

package hpc

// Functions maps CUDA runtime/library function names to HIP equivalents.
// The subset covers the runtime, memory, stream, event, curand and cublas
// entry points exercised by the workload generator and benchmarks.
var Functions = map[string]string{
	// runtime / device management
	"cudaDeviceSynchronize":    "hipDeviceSynchronize",
	"cudaDeviceReset":          "hipDeviceReset",
	"cudaSetDevice":            "hipSetDevice",
	"cudaGetDevice":            "hipGetDevice",
	"cudaGetDeviceCount":       "hipGetDeviceCount",
	"cudaGetDeviceProperties":  "hipGetDeviceProperties",
	"cudaDeviceGetAttribute":   "hipDeviceGetAttribute",
	"cudaDeviceSetCacheConfig": "hipDeviceSetCacheConfig",
	"cudaGetLastError":         "hipGetLastError",
	"cudaPeekAtLastError":      "hipPeekAtLastError",
	"cudaGetErrorName":         "hipGetErrorName",
	"cudaGetErrorString":       "hipGetErrorString",
	"cudaDriverGetVersion":     "hipDriverGetVersion",
	"cudaRuntimeGetVersion":    "hipRuntimeGetVersion",

	// memory
	"cudaMalloc":               "hipMalloc",
	"cudaMallocHost":           "hipHostMalloc",
	"cudaMallocManaged":        "hipMallocManaged",
	"cudaMallocPitch":          "hipMallocPitch",
	"cudaMalloc3D":             "hipMalloc3D",
	"cudaFree":                 "hipFree",
	"cudaFreeHost":             "hipHostFree",
	"cudaMemcpy":               "hipMemcpy",
	"cudaMemcpyAsync":          "hipMemcpyAsync",
	"cudaMemcpy2D":             "hipMemcpy2D",
	"cudaMemcpyPeer":           "hipMemcpyPeer",
	"cudaMemcpyToSymbol":       "hipMemcpyToSymbol",
	"cudaMemcpyFromSymbol":     "hipMemcpyFromSymbol",
	"cudaMemset":               "hipMemset",
	"cudaMemsetAsync":          "hipMemsetAsync",
	"cudaMemGetInfo":           "hipMemGetInfo",
	"cudaHostRegister":         "hipHostRegister",
	"cudaHostUnregister":       "hipHostUnregister",
	"cudaHostGetDevicePointer": "hipHostGetDevicePointer",

	// streams
	"cudaStreamCreate":                   "hipStreamCreate",
	"cudaStreamCreateWithFlags":          "hipStreamCreateWithFlags",
	"cudaStreamCreateWithPriority":       "hipStreamCreateWithPriority",
	"cudaStreamDestroy":                  "hipStreamDestroy",
	"cudaStreamSynchronize":              "hipStreamSynchronize",
	"cudaStreamWaitEvent":                "hipStreamWaitEvent",
	"cudaStreamQuery":                    "hipStreamQuery",
	"cudaStreamAddCallback":              "hipStreamAddCallback",
	"cudaStreamGetFlags":                 "hipStreamGetFlags",
	"cudaStreamGetPriority":              "hipStreamGetPriority",
	"cudaStreamBeginCapture":             "hipStreamBeginCapture",
	"cudaStreamEndCapture":               "hipStreamEndCapture",
	"cudaStreamIsCapturing":              "hipStreamIsCapturing",
	"cudaDeviceGetStreamPriorityRange":   "hipDeviceGetStreamPriorityRange",
	"cudaStreamAttachMemAsync":           "hipStreamAttachMemAsync",
	"cudaLaunchKernel":                   "hipLaunchKernel",
	"cudaLaunchHostFunc":                 "hipLaunchHostFunc",
	"cudaFuncGetAttributes":              "hipFuncGetAttributes",
	"cudaOccupancyMaxPotentialBlockSize": "hipOccupancyMaxPotentialBlockSize",

	// events
	"cudaEventCreate":          "hipEventCreate",
	"cudaEventCreateWithFlags": "hipEventCreateWithFlags",
	"cudaEventDestroy":         "hipEventDestroy",
	"cudaEventRecord":          "hipEventRecord",
	"cudaEventRecordWithFlags": "hipEventRecordWithFlags",
	"cudaEventSynchronize":     "hipEventSynchronize",
	"cudaEventElapsedTime":     "hipEventElapsedTime",
	"cudaEventQuery":           "hipEventQuery",

	// curand -> rocrand/hiprand (the paper's example uses rocrand)
	"curand_init":                        "rocrand_init",
	"curand_uniform":                     "rocrand_uniform",
	"curand_uniform_double":              "rocrand_uniform_double",
	"curand_normal":                      "rocrand_normal",
	"curand_normal_double":               "rocrand_normal_double",
	"curandCreateGenerator":              "hiprandCreateGenerator",
	"curandDestroyGenerator":             "hiprandDestroyGenerator",
	"curandGenerateUniform":              "hiprandGenerateUniform",
	"curandGenerateNormal":               "hiprandGenerateNormal",
	"curandSetPseudoRandomGeneratorSeed": "hiprandSetPseudoRandomGeneratorSeed",

	// cublas -> hipblas
	"cublasCreate":    "hipblasCreate",
	"cublasDestroy":   "hipblasDestroy",
	"cublasSetStream": "hipblasSetStream",
	"cublasSaxpy":     "hipblasSaxpy",
	"cublasDaxpy":     "hipblasDaxpy",
	"cublasSgemm":     "hipblasSgemm",
	"cublasDgemm":     "hipblasDgemm",
	"cublasSdot":      "hipblasSdot",
	"cublasDdot":      "hipblasDdot",
	"cublasSscal":     "hipblasSscal",
	"cublasDscal":     "hipblasDscal",
	"cublasSetVector": "hipblasSetVector",
	"cublasGetVector": "hipblasGetVector",

	// thread/synchronization intrinsics
	"__syncthreads":     "__syncthreads",
	"__threadfence":     "__threadfence",
	"atomicAdd":         "atomicAdd",
	"cudaProfilerStart": "hipProfilerStart",
	"cudaProfilerStop":  "hipProfilerStop",
}

// Types maps CUDA type names to HIP equivalents.
var Types = map[string]string{
	"cudaError_t":             "hipError_t",
	"cudaError":               "hipError_t",
	"cudaStream_t":            "hipStream_t",
	"cudaEvent_t":             "hipEvent_t",
	"cudaDeviceProp":          "hipDeviceProp_t",
	"cudaMemcpyKind":          "hipMemcpyKind",
	"cudaStreamCaptureMode":   "hipStreamCaptureMode",
	"cudaStreamCaptureStatus": "hipStreamCaptureStatus",
	"cudaGraph_t":             "hipGraph_t",
	"cudaHostFn_t":            "hipHostFn_t",
	"cudaFuncAttributes":      "hipFuncAttributes",
	"cudaArray_t":             "hipArray_t",
	"cudaChannelFormatDesc":   "hipChannelFormatDesc",
	"curandState":             "rocrand_state_xorwow",
	"curandState_t":           "rocrand_state_xorwow",
	"curandGenerator_t":       "hiprandGenerator_t",
	"cublasHandle_t":          "hipblasHandle_t",
	"cublasStatus_t":          "hipblasStatus_t",
	"cublasOperation_t":       "hipblasOperation_t",
	"__half":                  "rocblas_half",
	"__half2":                 "rocblas_half2",
	"dim3":                    "dim3",
}

// Enums maps CUDA enumerator constants to HIP equivalents.
var Enums = map[string]string{
	"cudaSuccess":                      "hipSuccess",
	"cudaErrorMemoryAllocation":        "hipErrorOutOfMemory",
	"cudaErrorInvalidValue":            "hipErrorInvalidValue",
	"cudaMemcpyHostToDevice":           "hipMemcpyHostToDevice",
	"cudaMemcpyDeviceToHost":           "hipMemcpyDeviceToHost",
	"cudaMemcpyDeviceToDevice":         "hipMemcpyDeviceToDevice",
	"cudaMemcpyHostToHost":             "hipMemcpyHostToHost",
	"cudaMemcpyDefault":                "hipMemcpyDefault",
	"cudaStreamNonBlocking":            "hipStreamNonBlocking",
	"cudaStreamDefault":                "hipStreamDefault",
	"cudaStreamCaptureModeGlobal":      "hipStreamCaptureModeGlobal",
	"cudaStreamCaptureModeThreadLocal": "hipStreamCaptureModeThreadLocal",
	"cudaStreamCaptureModeRelaxed":     "hipStreamCaptureModeRelaxed",
	"cudaStreamCaptureStatusNone":      "hipStreamCaptureStatusNone",
	"cudaStreamCaptureStatusActive":    "hipStreamCaptureStatusActive",
	"cudaEventDefault":                 "hipEventDefault",
	"cudaEventBlockingSync":            "hipEventBlockingSync",
	"cudaEventDisableTiming":           "hipEventDisableTiming",
	"cudaEventInterprocess":            "hipEventInterprocess",
	"cudaEventRecordDefault":           "hipEventRecordDefault",
	"cudaEventRecordExternal":          "hipEventRecordExternal",
	"cudaHostRegisterDefault":          "hipHostRegisterDefault",
	"CUBLAS_OP_N":                      "HIPBLAS_OP_N",
	"CUBLAS_OP_T":                      "HIPBLAS_OP_T",
	"CUBLAS_STATUS_SUCCESS":            "HIPBLAS_STATUS_SUCCESS",
	"CURAND_RNG_PSEUDO_DEFAULT":        "HIPRAND_RNG_PSEUDO_DEFAULT",
}

// Headers maps CUDA header paths to HIP equivalents.
var Headers = map[string]string{
	"cuda.h":               "hip/hip_runtime.h",
	"cuda_runtime.h":       "hip/hip_runtime.h",
	"cuda_runtime_api.h":   "hip/hip_runtime_api.h",
	"curand.h":             "hiprand/hiprand.h",
	"curand_kernel.h":      "rocrand/rocrand_kernel.h",
	"cublas_v2.h":          "hipblas/hipblas.h",
	"cuda_fp16.h":          "hip/hip_fp16.h",
	"cooperative_groups.h": "hip/hip_cooperative_groups.h",
}
