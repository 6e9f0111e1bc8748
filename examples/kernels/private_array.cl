/* A private array written before a uniform barrier and read after it:
   each work-item fills its own scratch array, the group exchanges one
   value through local memory, and each work-item then reads its private
   array again. The region entered at the kernel's start allocates
   private memory, so it would need one-lane batches; a kernel with
   barriers runs lane code only as one batch per work-group, so this one
   runs on the fiber scheduler.

   Expected: groverc report shows "execution path (with local memory):
   fiber" and region 0's "forces fibers: private alloca at <line>:<col>";
   groverc sanitize --local 16 is clean.                                */
__kernel void private_array(__global float *out, __global const float *in) {
  __local float tile[16];
  float acc[4];
  int l = get_local_id(0);
  int g = get_global_id(0);
  for (int k = 0; k < 4; k++) {
    acc[k] = in[g] * (float)(k + 1);
  }
  tile[l] = acc[3];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[g] = acc[0] + acc[l % 4] + tile[(l + 1) % get_local_size(0)];
}
