/* A loop whose trip count comes from get_local_id(0): its exit branch
 * diverges and its arms do not reconverge in a diamond, so the region
 * keeps its scalar-sweep verdict (one-lane batches), with the branch's
 * source location in the bail reason. check.sh gates the verdict. */
__kernel void ragged_sum(__global int *out, __global const int *in) {
  int l = get_local_id(0);
  int acc = 0;
  for (int t = 0; t != l; t++) {
    acc = acc + in[t];
  }
  out[get_global_id(0)] = acc;
}
