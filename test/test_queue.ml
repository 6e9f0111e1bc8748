(* Out-of-order command-queue tests: differential equivalence of queued
   vs sequential submission over the whole suite, buffer-hazard ordering
   (RAW/WAW/WAR), read/write barrier semantics, argument-mode derivation,
   plan clamping against the domain cap, error propagation through
   [finish], and a qcheck property over random event DAGs. *)

open Grover_ir
open Grover_ocl
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit

(* The container this suite develops on has a single hardware thread, so
   the default domain cap folds every parallel request to one domain.
   Concurrency tests opt into oversubscription explicitly. *)
let with_domain_cap (n : int) (f : unit -> 'a) : 'a =
  Runtime.set_domain_cap (Some n);
  Fun.protect ~finally:(fun () -> Runtime.set_domain_cap None) f

(* Global/Constant buffers only: sequential launches allocate their
   local/private scratch into the workload memory while queued launches
   use per-domain arenas, so only the user-visible spaces compare. *)
let global_storages (pls : H.prepared_launch list) =
  List.map
    (fun (pl : H.prepared_launch) ->
      pl.H.pl_w.Kit.mem.Memory.buffers
      |> List.filter (fun (b : Memory.buffer) ->
             match b.Memory.space with
             | Ssa.Global | Ssa.Constant -> true
             | _ -> false)
      |> List.map (fun (b : Memory.buffer) -> (b.Memory.bid, b.Memory.st))
      |> List.sort compare)
    pls

(* -- Differential: queued = sequential over the whole suite ----------------- *)

let check_queued_matches_sequential () =
  let set =
    List.concat_map
      (fun c -> [ (c, H.With_lm); (c, H.Without_lm) ])
      Grover_suite.Suite.all
  in
  let pls_seq = H.prepare_launches ~jobs:2 ~scale:8 set in
  let pls_q = H.prepare_launches ~jobs:2 ~scale:8 set in
  let _, tot_seq = H.run_sequential pls_seq in
  let _, tot_q = with_domain_cap 3 (fun () -> H.run_queued ~domains:0 pls_q) in
  H.validate_launches pls_seq;
  H.validate_launches pls_q;
  Alcotest.(check bool)
    "global buffers bit-identical" true
    (global_storages pls_seq = global_storages pls_q);
  Alcotest.(check bool) "per-launch totals identical" true (tot_seq = tot_q)

(* -- Hazard ordering on real launches --------------------------------------- *)

let incr_src =
  "__kernel void incr(__global float *a) { int i = get_global_id(0); a[i] = a[i] + 1.0f; }"

let copy2_src =
  "__kernel void copy2(__global float *dst, __global const float *src) { int i = get_global_id(0); dst[i] = 2.0f * src[i]; }"

let test_hazard_chain () =
  (* incr;incr;incr on b (RAW/WAW serialize), copy2 a<-b (RAW on b),
     incr b again (WAR: must wait for copy2's read). Deterministic
     end-state regardless of pool width, and seqnos in hazard order. *)
  with_domain_cap 3 (fun () ->
      let inc = Runtime.compile_kernel incr_src ~name:"incr" in
      let cp = Runtime.compile_kernel copy2_src ~name:"copy2" in
      let mem = Memory.create () in
      let n = 64 in
      let a = Memory.alloc mem Ssa.F32 n in
      let b = Memory.alloc mem Ssa.F32 n in
      let q = Queue.create () in
      let cfg =
        { Runtime.global = (n, 1, 1); local = (8, 1, 1); queues = 1 }
      in
      let e1 = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      let e2 = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      let e3 = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      let ec =
        Queue.enqueue_nd_range q cp ~cfg
          ~args:[ Runtime.Abuf a; Runtime.Abuf b ] ()
      in
      let e4 = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      Queue.finish q;
      let seq ev = Event.seqno ev in
      Alcotest.(check bool) "incr chain ordered" true
        (seq e1 < seq e2 && seq e2 < seq e3);
      Alcotest.(check bool) "copy after third incr (RAW)" true
        (seq e3 < seq ec);
      Alcotest.(check bool) "fourth incr after copy (WAR)" true
        (seq ec < seq e4);
      Array.iter
        (fun v -> Alcotest.(check (float 0.0)) "b = 4 incrs" 4.0 v)
        (Memory.to_float_array b);
      Array.iter
        (fun v -> Alcotest.(check (float 0.0)) "a = 2 * (3 incrs)" 6.0 v)
        (Memory.to_float_array a))

let test_read_write_barriers () =
  with_domain_cap 2 (fun () ->
      let inc = Runtime.compile_kernel incr_src ~name:"incr" in
      let mem = Memory.create () in
      let n = 32 in
      let b = Memory.alloc mem Ssa.F32 n in
      let q = Queue.create () in
      let cfg =
        { Runtime.global = (n, 1, 1); local = (8, 1, 1); queues = 1 }
      in
      let e1 = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      (* The read barrier completes only after the writer... *)
      let er = Queue.enqueue_read q b () in
      (* ...and a write barrier fences later touches behind it. *)
      let ew = Queue.enqueue_write q b () in
      let e2 = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      let em = Queue.enqueue_marker q () in
      Queue.wait q er;
      Alcotest.(check bool) "wait completed the read barrier" true
        (Event.is_complete er);
      Queue.finish q;
      let seq ev = Event.seqno ev in
      Alcotest.(check bool) "read barrier after writer" true (seq e1 < seq er);
      Alcotest.(check bool) "write barrier after reader (WAR)" true
        (seq er < seq ew);
      Alcotest.(check bool) "second launch after write barrier" true
        (seq ew < seq e2);
      Alcotest.(check bool) "marker last" true (seq e2 < seq em);
      (* Profiling timestamps: queued <= submitted <= completed on every
         event, and a dependent command is submitted no earlier than its
         dependency completed. *)
      List.iter
        (fun ev ->
          let q, s, c = Event.profile ev in
          Alcotest.(check bool) "queued <= submitted <= completed" true
            (q <= s && s <= c))
        [ e1; er; ew; e2; em ];
      let _, s2, _ = Event.profile e2 and _, _, cw = Event.profile ew in
      Alcotest.(check bool) "dependent submitted after dep completed" true
        (cw <= s2);
      Array.iter
        (fun v -> Alcotest.(check (float 0.0)) "b incremented twice" 2.0 v)
        (Memory.to_float_array b))

(* -- Argument-mode derivation ------------------------------------------------ *)

let test_arg_modes () =
  let inc = Runtime.compile_kernel incr_src ~name:"incr" in
  let cp = Runtime.compile_kernel copy2_src ~name:"copy2" in
  (match Queue.arg_modes inc.Interp.fn with
  | [| (r, w) |] ->
      Alcotest.(check bool) "incr reads its arg" true r;
      Alcotest.(check bool) "incr writes its arg" true w
  | _ -> Alcotest.fail "incr: expected one arg mode");
  match Queue.arg_modes cp.Interp.fn with
  | [| (dr, dw); (sr, sw) |] ->
      Alcotest.(check bool) "copy2 dst write-only" true ((not dr) && dw);
      Alcotest.(check bool) "copy2 src read-only" true (sr && not sw)
  | _ -> Alcotest.fail "copy2: expected two arg modes"

(* -- Plan clamping ----------------------------------------------------------- *)

let test_plan_clamp () =
  let inc = Runtime.compile_kernel incr_src ~name:"incr" in
  let cfg =
    { Runtime.global = (64, 1, 1); local = (8, 1, 1); queues = 1 }
  in
  with_domain_cap 1 (fun () ->
      let p = Runtime.plan inc ~cfg ~domains:4 () in
      Alcotest.(check int) "request recorded" 4 p.Runtime.domains_requested;
      Alcotest.(check int) "cap 1 folds to one domain" 1 p.Runtime.domains_used;
      Alcotest.(check bool) "clamp reported" true p.Runtime.domains_clamped);
  with_domain_cap 4 (fun () ->
      let p = Runtime.plan inc ~cfg ~domains:4 () in
      Alcotest.(check int) "8 groups feed 4 domains" 4 p.Runtime.domains_used;
      Alcotest.(check bool) "no clamp at cap" false p.Runtime.domains_clamped;
      (* Two groups cannot profitably feed four domains. *)
      let small =
        { Runtime.global = (16, 1, 1); local = (8, 1, 1); queues = 1 }
      in
      let p = Runtime.plan inc ~cfg:small ~domains:4 () in
      Alcotest.(check int) "share clamp" 1 p.Runtime.domains_used;
      Alcotest.(check bool) "share clamp reported" true
        p.Runtime.domains_clamped;
      Alcotest.(check int) "auto resolves to the cap" 4
        (Runtime.resolve_domains 0))

(* -- Error propagation -------------------------------------------------------- *)

let test_finish_raises () =
  with_domain_cap 2 (fun () ->
      let inc = Runtime.compile_kernel incr_src ~name:"incr" in
      let mem = Memory.create () in
      let b = Memory.alloc mem Ssa.F32 16 in
      let q = Queue.create () in
      (* 64 work-items over a 16-element buffer: out of bounds. *)
      let cfg =
        { Runtime.global = (64, 1, 1); local = (8, 1, 1); queues = 1 }
      in
      let ev = Queue.enqueue_nd_range q inc ~cfg ~args:[ Runtime.Abuf b ] () in
      let raised =
        match Queue.finish q with
        | () -> false
        | exception _ -> true
      in
      Alcotest.(check bool) "finish re-raises the launch failure" true raised;
      Alcotest.(check bool) "event completed with an error" true
        (Event.is_complete ev && Event.error ev <> None))

(* -- Random event DAGs -------------------------------------------------------- *)

(* Each command increments one of three buffers and waits on a random
   subset of earlier events (on top of the implicit hazards). After
   [finish]: everything completed, every event's completion seqno exceeds
   all of its dependencies' (explicit waits and same-buffer program
   order), and each buffer holds exactly its increment count. *)
let prop_dag_order =
  QCheck.Test.make ~count:30 ~name:"queue: random DAGs complete in dep order"
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (pair (int_bound 2) (small_list (int_bound 11))))
    (fun cmds ->
      with_domain_cap 3 (fun () ->
          let inc = Runtime.compile_kernel incr_src ~name:"incr" in
          let mem = Memory.create () in
          let n = 32 in
          let bufs = Array.init 3 (fun _ -> Memory.alloc mem Ssa.F32 n) in
          let q = Queue.create () in
          let cfg =
            { Runtime.global = (n, 1, 1); local = (8, 1, 1); queues = 1 }
          in
          let evs =
            List.fold_left
              (fun acc (bi, wix) ->
                let earlier =
                  Array.of_list (List.rev_map (fun (ev, _, _) -> ev) acc)
                in
                let wait =
                  List.filter_map
                    (fun w ->
                      if Array.length earlier = 0 then None
                      else Some earlier.(w mod Array.length earlier))
                    wix
                in
                let ev =
                  Queue.enqueue_nd_range q inc ~cfg
                    ~args:[ Runtime.Abuf bufs.(bi) ]
                    ~wait ()
                in
                (ev, bi, wait) :: acc)
              [] cmds
            |> List.rev
          in
          Queue.finish q;
          let ok_complete =
            List.for_all (fun (ev, _, _) -> Event.is_complete ev) evs
          in
          let ok_waits =
            List.for_all
              (fun (ev, _, wait) ->
                List.for_all (fun w -> Event.seqno w < Event.seqno ev) wait)
              evs
          in
          (* Same-buffer commands serialize in enqueue order. *)
          let ok_hazards =
            List.for_all
              (fun bi ->
                let seqs =
                  List.filter_map
                    (fun (ev, b, _) ->
                      if b = bi then Some (Event.seqno ev) else None)
                    evs
                in
                List.sort compare seqs = seqs)
              [ 0; 1; 2 ]
          in
          let counts = Array.make 3 0 in
          List.iter (fun (_, bi, _) -> counts.(bi) <- counts.(bi) + 1) evs;
          let ok_values =
            Array.for_all2
              (fun b c ->
                Array.for_all
                  (fun v -> v = float_of_int c)
                  (Memory.to_float_array b))
              bufs counts
          in
          ok_complete && ok_waits && ok_hazards && ok_values))

let suite =
  [
    ( "queue",
      [
        Alcotest.test_case "queued matches sequential (compiled)" `Slow
          check_queued_matches_sequential;
        (* The tree-engine oracle through GROVER_FORCE_PATH: the harness
           launches take no path. *)
        Alcotest.test_case "queued matches sequential (tree)" `Slow
          (fun () ->
            Test_ocl.with_force_path "fiber" check_queued_matches_sequential);
        Alcotest.test_case "buffer hazards serialize launches" `Quick
          test_hazard_chain;
        Alcotest.test_case "read/write barriers and markers" `Quick
          test_read_write_barriers;
        Alcotest.test_case "arg modes from IR provenance" `Quick test_arg_modes;
        Alcotest.test_case "plan clamps to the domain cap" `Quick
          test_plan_clamp;
        Alcotest.test_case "finish re-raises launch failures" `Quick
          test_finish_raises;
        QCheck_alcotest.to_alcotest prop_dag_order;
      ] );
  ]
