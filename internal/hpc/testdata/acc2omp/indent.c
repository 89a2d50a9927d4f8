void f(){
	#pragma acc loop
	for(;;);
}
