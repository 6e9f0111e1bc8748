(** NVD-MM: NVIDIA-SDK-style tiled matrix multiplication. Both input
    matrices are staged in 16x16 local tiles. The paper derives three test
    cases by removing local memory for matrix A only (NVD-MM-A), matrix B
    only (NVD-MM-B), or both (NVD-MM-AB) — selected here through Grover's
    candidate restriction.

    The B matrix is column-accessed with a power-of-two row stride
    (N = 1024 floats = 4 KiB), so without local staging its tile columns
    collide in the same L1 set — the cache-layout effect the paper blames
    for the NVD-MM-B performance loss.

    The output row is clamped with a boundary guard ([row >= N] never
    fires at these launch sizes), the divergent-but-pure diamond the
    real SDK kernels carry — it must run as a masked lane batch, not
    send the kernel to the fiber scheduler. *)

open Grover_ir
open Grover_ocl

let source =
  {|
#define TS 16
__kernel void matmul(__global float *C, __global const float *A,
                     __global const float *B, int N, int K) {
  __local float As[TS][TS];
  __local float Bs[TS][TS];
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  int gx = get_global_id(0);
  int gy = get_global_id(1);
  int row = gy;
  if (row >= N) row = N - 1;
  float acc = 0.0f;
  for (int t = 0; t < K / TS; t++) {
    As[ly][lx] = A[gy * K + t * TS + lx];
    Bs[ly][lx] = B[(t * TS + ly) * N + gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int k = 0; k < TS; k++) {
      acc += As[ly][k] * Bs[k][lx];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  C[row * N + gx] = acc;
}
|}

(* C is an m x m slab computed against a B whose physical row stride is a
   full n columns — the slab keeps the interpreter fast while preserving
   the stride that causes the set conflicts. *)
let base_m = 32
let row_stride = 1024
let base_k = 64

let mk_slab ~scale : Kit.workload =
  let m = max 16 (base_m / scale) in
  let k = max 16 (base_k / scale) in
  let n = row_stride in
  let mem = Memory.create () in
  let c = Memory.alloc mem Ssa.F32 (m * n) in
  let a = Memory.alloc mem Ssa.F32 (m * k) in
  let b = Memory.alloc mem Ssa.F32 (k * n) in
  let gen = Kit.float_gen 314 in
  Memory.fill_floats a (fun _ -> gen ());
  Memory.fill_floats b (fun _ -> gen ());
  let check () =
    let av = Memory.to_float_array a
    and bv = Memory.to_float_array b
    and cv = Memory.to_float_array c in
    let ok = ref (Ok ()) in
    (try
       for i = 0 to m - 1 do
         for j = 0 to m - 1 do
           let acc = ref 0.0 in
           for kk = 0 to k - 1 do
             acc := !acc +. (av.((i * k) + kk) *. bv.((kk * n) + j))
           done;
           let got = cv.((i * n) + j) in
           let tol = 1e-6 *. Float.max 1.0 (Float.abs !acc) in
           if Float.abs (got -. !acc) > tol then begin
             ok :=
               Error
                 (Printf.sprintf "NVD-MM: C[%d][%d] expected %.6g got %.6g" i j
                    !acc got);
             raise Exit
           end
         done
       done
     with Exit -> ());
    !ok
  in
  {
    Kit.mem;
    args =
      [ Runtime.Abuf c; Runtime.Abuf a; Runtime.Abuf b; Runtime.Aint n;
        Runtime.Aint k ];
    global = (m, m, 1);
    local = (16, 16, 1);
    check;
  }

let base_case ~id ~remove ~what : Kit.case =
  {
    Kit.id;
    origin = "NVIDIA SDK (oclMatrixMul)";
    description =
      Printf.sprintf "Tiled matrix multiplication; local memory disabled for %s"
        what;
    dataset =
      Printf.sprintf "C slab %dx%d, K=%d, B row stride %d floats" base_m base_m
        base_k row_stride;
    source;
    kernel = "matmul";
    defines = [];
    remove;
    mk = mk_slab;
  }

let case_a : Kit.case = base_case ~id:"NVD-MM-A" ~remove:(Some [ "As" ]) ~what:"matrix A"
let case_b : Kit.case = base_case ~id:"NVD-MM-B" ~remove:(Some [ "Bs" ]) ~what:"matrix B"

let case_ab : Kit.case =
  base_case ~id:"NVD-MM-AB" ~remove:(Some [ "As"; "Bs" ]) ~what:"both matrices"
