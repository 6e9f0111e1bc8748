/* A store under divergent control: each work-item conditionally writes
 * its own __local slot. Legal (race-free, uniform barriers) and
 * maskable: the guarded store runs in a masked arm, where only the lanes
 * that take the branch store, record and bounds-check, so the region
 * runs W-wide lane batches. check.sh gates the report verdict string. */
__kernel void scatter_guard(__global int *out, __global const int *in,
                            int n) {
  __local int tmp[16];
  int l = get_local_id(0);
  int g = get_global_id(0);
  int v = in[g];
  tmp[l] = 0;
  barrier(CLK_LOCAL_MEM_FENCE);
  if (v > n) { tmp[l] = v; }
  barrier(CLK_LOCAL_MEM_FENCE);
  out[g] = tmp[l];
}
