(* NBody: an end-to-end simulation step through the public API.

   Builds the N-body benchmark workload by hand (rather than through the
   suite harness) to show the full user-facing flow: compile OpenCL C,
   normalise, optionally run Grover, allocate buffers, launch over an
   NDRange, and read results back — then integrate positions one time step
   and report the energy drift between the two kernel versions (zero: the
   transformation is exact).

   Run with: dune exec examples/nbody_sim.exe *)

open Grover_ir
open Grover_ocl

let n = 256
let eps = 0.01
let dt = 0.001

let source = Grover_suite.Nvd_nbody.case.Grover_suite.Kit.source

let run_accel ~use_grover (pos_data : float array) : float array =
  let fn =
    match Lower.compile source with [ f ] -> f | _ -> failwith "one kernel"
  in
  Grover_passes.Pipeline.normalize fn;
  if use_grover then begin
    let o = Grover_core.Grover.run fn in
    assert (o.Grover_core.Grover.transformed = [ "sh" ])
  end;
  let compiled = Interp.prepare fn in
  let mem = Memory.create () in
  let vec4 = Ssa.Vec (Ssa.F32, 4) in
  let accel = Memory.alloc mem vec4 n in
  let pos = Memory.alloc mem vec4 n in
  Memory.fill_floats pos (fun i -> pos_data.(i));
  ignore
    (Runtime.launch compiled
       ~cfg:{ Runtime.global = (n, 1, 1); local = (64, 1, 1); queues = 1 }
       ~args:
         [ Runtime.Abuf accel; Runtime.Abuf pos; Runtime.Aint n;
           Runtime.Afloat eps ]
       ~mem ());
  Memory.to_float_array accel

let () =
  (* Plummer-ish disc of bodies. *)
  let gen = Grover_suite.Kit.float_gen 2024 in
  let pos = Array.init (n * 4) (fun i -> if i mod 4 = 3 then 1.0 else gen ()) in
  let vel = Array.make (n * 4) 0.0 in
  Printf.printf "N-body step: %d bodies, eps=%.3g, dt=%.3g\n" n eps dt;
  let acc_with = run_accel ~use_grover:false pos in
  let acc_without = run_accel ~use_grover:true pos in
  (* The transformation must be exact: same reads, same arithmetic. *)
  let max_diff = ref 0.0 in
  Array.iteri
    (fun i a -> max_diff := Float.max !max_diff (Float.abs (a -. acc_without.(i))))
    acc_with;
  Printf.printf "max |accel(with lm) - accel(grover)| = %g\n" !max_diff;
  assert (!max_diff = 0.0);
  (* Integrate one leapfrog step with the (identical) accelerations. *)
  for i = 0 to n - 1 do
    for c = 0 to 2 do
      vel.((4 * i) + c) <- vel.((4 * i) + c) +. (dt *. acc_with.((4 * i) + c));
      pos.((4 * i) + c) <- pos.((4 * i) + c) +. (dt *. vel.((4 * i) + c))
    done
  done;
  let speed2 i =
    (vel.(4 * i) ** 2.) +. (vel.((4 * i) + 1) ** 2.) +. (vel.((4 * i) + 2) ** 2.)
  in
  let kinetic = ref 0.0 in
  for i = 0 to n - 1 do
    kinetic := !kinetic +. (0.5 *. pos.((4 * i) + 3) *. speed2 i)
  done;
  Printf.printf "kinetic energy after one step: %.6f\n" !kinetic;
  print_endline "OK: Grover's kernel is bit-identical to the original."
