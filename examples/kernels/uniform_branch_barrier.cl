/* Positive companion of bad_divergent_barrier.cl: this barrier also sits
   under a branch, but the condition is *group-uniform* (every work-item
   of a group computes the same group id), so all work-items of a group
   agree on reaching it — well-defined OpenCL, and the region verifier
   must not reject it. Guards against over-conservative barrier-region
   formation: a barrier under uniform control still qualifies for the
   lane-batched region executor.

   Expected: groverc report shows "execution path (with local memory):
   wg-vec"; groverc sanitize --local 16 is clean.                        */
__kernel void uniform_branch_barrier(__global float *out,
                                     __global const float *in) {
  __local float tile[16];
  int l = get_local_id(0);
  int g = get_global_id(0);
  if (get_group_id(0) % 2 == 0) {
    tile[l] = in[g] * 2.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[g] = tile[15 - l];
  } else {
    out[g] = in[g];
  }
}
