(** NVD-NBody: the NVIDIA SDK all-pairs N-body kernel. Body positions are
    processed in tiles; each tile is staged into local memory and then read
    by every work-item of the group (work-group index component of the
    global index is zero within a tile — shared data, paper Table III).

    The initial position read is guarded by a tail clamp ([me >= n]
    never fires at these launch sizes: the global size equals [n]) — a
    divergent-but-pure diamond that must run as a masked lane batch
    rather than send the kernel to the fiber scheduler. *)

open Grover_ir
open Grover_ocl

let source =
  {|
#define TILE 64
__kernel void nbody(__global float4 *accel, __global const float4 *pos,
                    int n, float eps) {
  __local float4 sh[TILE];
  int gid = get_global_id(0);
  int lx = get_local_id(0);
  int me = gid;
  if (me >= n) me = 0;
  float4 my = pos[me];
  float ax = 0.0f;
  float ay = 0.0f;
  float az = 0.0f;
  for (int t = 0; t < n / TILE; t++) {
    sh[lx] = pos[t * TILE + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int j = 0; j < TILE; j++) {
      float4 o = sh[j];
      float dx = o.x - my.x;
      float dy = o.y - my.y;
      float dz = o.z - my.z;
      float r2 = dx * dx + dy * dy + dz * dz + eps;
      float inv = rsqrt(r2);
      float inv3 = inv * inv * inv * o.w;
      ax = ax + dx * inv3;
      ay = ay + dy * inv3;
      az = az + dz * inv3;
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  accel[gid] = (float4)(ax, ay, az, 0.0f);
}
|}

let base_n = 512
let eps = 0.01

let mk ~scale : Kit.workload =
  let n = max 128 (base_n / scale) in
  let mem = Memory.create () in
  let vec4 = Ssa.Vec (Ssa.F32, 4) in
  let accel = Memory.alloc mem vec4 n in
  let pos = Memory.alloc mem vec4 n in
  let gen = Kit.float_gen 555 in
  Memory.fill_floats pos (fun i -> if i mod 4 = 3 then 1.0 else gen ());
  let check () =
    let p = Memory.to_float_array pos and a = Memory.to_float_array accel in
    let expected = Array.make (n * 4) 0.0 in
    for i = 0 to n - 1 do
      let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 in
      for j = 0 to n - 1 do
        let dx = p.(4 * j) -. p.(4 * i) in
        let dy = p.((4 * j) + 1) -. p.((4 * i) + 1) in
        let dz = p.((4 * j) + 2) -. p.((4 * i) + 2) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. eps in
        let inv = 1.0 /. sqrt r2 in
        let inv3 = inv *. inv *. inv *. p.((4 * j) + 3) in
        ax := !ax +. (dx *. inv3);
        ay := !ay +. (dy *. inv3);
        az := !az +. (dz *. inv3)
      done;
      expected.(4 * i) <- !ax;
      expected.((4 * i) + 1) <- !ay;
      expected.((4 * i) + 2) <- !az
    done;
    Kit.check_floats ~label:"NVD-NBody" ~expected ~actual:a ~eps:1e-6
  in
  {
    Kit.mem;
    args =
      [ Runtime.Abuf accel; Runtime.Abuf pos; Runtime.Aint n; Runtime.Afloat eps ];
    global = (n, 1, 1);
    local = (64, 1, 1);
    check;
  }

let case : Kit.case =
  {
    Kit.id = "NVD-NBody";
    origin = "NVIDIA SDK (oclNbody)";
    description = "All-pairs N-body; position tiles staged in local memory";
    dataset = Printf.sprintf "%d bodies (float4)" base_n;
    source;
    kernel = "nbody";
    defines = [];
    remove = None;
    mk;
  }
