(* groverc — the Grover compiler driver.

   Reads an OpenCL C kernel file, disables local memory usage (paper Fig. 9
   pipeline) and prints the analysis report and the transformed IR.

     groverc transform kernel.cl
     groverc transform kernel.cl --only As --define S=16
     groverc report kernel.cl
     groverc autotune NVD-MT --platform SNB
     groverc passes                       (list the registered passes)
     groverc pipeline kernel.cl --passes=canon,mem2reg,dce --time-passes
     groverc -passes=canon,mem2reg,simplify,cse,dce --time-passes --verify-each
       (no subcommand: runs the pass pipeline over all bundled suite kernels)

   All commands accept --diag-format=json to emit machine-readable
   diagnostics and pass statistics for the bench/autotune layer. *)

open Cmdliner
module Diag = Grover_support.Diag
module Pass = Grover_passes.Pass
module Cache = Grover_cache.Compile_cache
module Atdb = Grover_cache.Autotune_db
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module Suite = Grover_suite.Suite
module Runtime = Grover_ocl.Runtime

(* Referencing the Grover pass forces Grover_core to link, which registers
   "grover" in the pass registry for -passes= pipelines; likewise the
   analysis passes (barrier-check, race-check, bounds-check, analyze). *)
let grover_pass = Grover_core.Grover.pass
let analyze_pass = Grover_analysis.Analysis.analyze_pass

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_defines defs =
  List.map
    (fun d ->
      match String.index_opt d '=' with
      | Some i ->
          (String.sub d 0 i, String.sub d (i + 1) (String.length d - i - 1))
      | None -> (d, "1"))
    defs

(* -- Diagnostics and instrumentation flags (shared by the commands) ---------- *)

type diag_format = Text | Json

let diag_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "diag-format" ] ~docv:"FMT"
        ~doc:"Diagnostic output format: $(b,text) (file:line:col: severity: \
              message, on stderr) or $(b,json) (one JSON object per line, on \
              stdout).")

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"LIST"
        ~doc:
          "Comma-separated pass pipeline to run instead of the default (see \
           $(b,groverc passes) for the registry). Also accepted as \
           $(b,-passes=LIST).")

let time_passes_arg =
  Arg.(
    value & flag
    & info [ "time-passes" ]
        ~doc:"Print an aggregated per-pass timing table (wall-clock time, \
              instruction-count delta, changed/unchanged).")

let print_changed_arg =
  Arg.(
    value & flag
    & info [ "print-changed" ]
        ~doc:"Print the IR after every pass that changed it.")

let verify_each_arg =
  Arg.(
    value & flag
    & info [ "verify-each" ]
        ~doc:"Re-run the IR verifier after every pass and fail on the first \
              pass that breaks the IR.")

(* "X", "X,Y" or "X,Y,Z" -> a work-size triple (missing dimensions are 1). *)
let size_conv : (int * int * int) Arg.conv =
  let parse s =
    let parts = String.split_on_char ',' s |> List.map String.trim in
    let dims = List.map int_of_string_opt parts in
    if List.exists (fun d -> match d with Some d -> d <= 0 | None -> true) dims
    then Error (`Msg (Printf.sprintf "invalid work size %S (want X[,Y[,Z]])" s))
    else
      match List.filter_map Fun.id dims with
      | [ x ] -> Ok (x, 1, 1)
      | [ x; y ] -> Ok (x, y, 1)
      | [ x; y; z ] -> Ok (x, y, z)
      | _ -> Error (`Msg (Printf.sprintf "invalid work size %S (want X[,Y[,Z]])" s))
  in
  let print ppf (x, y, z) = Format.fprintf ppf "%d,%d,%d" x y z in
  Arg.conv (parse, print)

let local_arg =
  Arg.(
    value
    & opt (some size_conv) None
    & info [ "local" ] ~docv:"X[,Y[,Z]]"
        ~doc:
          "Work-group size the kernel is launched with. The static analyses \
           assume 16 per thread-indexed dimension when not given.")

(* -- Kernel inputs (shared by the commands) ----------------------------------- *)

let defines_arg : (string * string) list Term.t =
  Term.(
    const parse_defines
    $ Arg.(
        value & opt_all string []
        & info [ "define"; "D" ] ~docv:"NAME=VALUE"
            ~doc:"Preprocessor definition (kernel-file targets)."))

(* Every command that runs bundled benchmarks takes --scale; each keeps its
   own default. A divisor below 1 is a usage error. *)
let scale_arg (default : int) : int Term.t =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid scale %S (want an integer >= 1)" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) default
    & info [ "scale" ] ~doc:"Problem-size divisor (benchmark targets).")

(* A benchmark target: "all" or a bundled benchmark id -> its suite cases. *)
let suite_cases (target : string) : (Kit.case list, string) result =
  if String.lowercase_ascii target = "all" then Ok Suite.all
  else
    match Suite.by_id target with
    | Some c -> Ok [ c ]
    | None ->
        Error
          (Printf.sprintf "unknown benchmark %s; try: all, %s" target
             (String.concat ", " (List.map (fun c -> c.Kit.id) Suite.all)))

(* -- Compile-cache and autotune-DB flags ------------------------------------- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Content-addressed compile-cache directory: compiled artifacts are \
           reused across runs, and the autotune database lives at \
           $(docv)/autotune.db. Also read from $(b,GROVER_CACHE_DIR); no \
           directory means no caching.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Compile from scratch even when a cache directory is configured.")

let resolve_cache_dir (cache_dir : string option) : string option =
  match cache_dir with
  | Some d -> Some d
  | None -> (
      match Sys.getenv_opt "GROVER_CACHE_DIR" with
      | None | Some "" -> None
      | Some d -> Some d)

(* The autotune DB file: --db, else autotune.db in the cache directory,
   else in .grover-cache. *)
let db_file_arg : string Term.t =
  let db =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:
            "Autotune database file (default: $(b,CACHE_DIR/autotune.db) \
             under --cache-dir / GROVER_CACHE_DIR, or \
             $(b,.grover-cache/autotune.db)).")
  in
  let pick db cache_dir =
    match db with
    | Some f -> f
    | None ->
        Atdb.default_file
          ~cache_dir:
            (Option.value (resolve_cache_dir cache_dir)
               ~default:".grover-cache")
  in
  Term.(const pick $ db $ cache_dir_arg)

(* The cache replays stored results; per-pass instrumentation only exists on
   a real run, so instrumented invocations always compile. *)
let cache_for ~(cache_dir : string option) ~(no_cache : bool)
    ~(instrumented : bool) : Cache.t option =
  if no_cache || instrumented then None
  else
    match resolve_cache_dir cache_dir with
    | Some dir -> Some (Cache.create ~dir ())
    | None -> None

(* Every compile of a kernel file or suite source: the artifacts of [rqs]
   from [cache] when one is configured, else built fresh, under [ctx] when
   the run is instrumented. Commands print only from artifacts, so a cache
   decides where they come from, never what is printed. *)
let artifacts ?ctx (cache : Cache.t option) (rqs : Cache.request list) :
    Cache.artifact list =
  match cache with
  | Some t -> List.map (fun pr -> pr.Cache.pr_art) (Cache.compile_batch t rqs)
  | None -> List.map (fun rq -> Cache.build_artifact ?ctx rq) rqs

let emit_cache_stats (t : Cache.t option) : unit =
  match t with
  | Some t -> prerr_endline (Cache.stats_line t)
  | None -> ()

let emit_diag fmt ?file (d : Diag.t) : unit =
  match fmt with
  | Text -> prerr_endline (Diag.to_string ?file d)
  | Json -> print_endline (Diag.to_json ?file d)

let emit_diags fmt ?file ds = List.iter (emit_diag fmt ?file) ds

let emit_timing fmt (c : Pass.ctx) : unit =
  match fmt with
  | Text ->
      print_string "=== pass timing ===\n";
      print_string (Pass.timing_table c)
  | Json -> List.iter print_endline (Pass.stats_json c)

(** Run [f]; on a front-end / verifier / internal error print one located
    diagnostic in the requested format and exit 1 (never a backtrace). *)
let guarded fmt ?file (f : unit -> unit) : unit Term.ret =
  try
    f ();
    `Ok ()
  with
  | Grover_clc.Loc.Error (l, m) ->
      emit_diag fmt ?file (Diag.of_loc_error l m);
      exit 1
  | Diag.Fatal d ->
      emit_diag fmt ?file d;
      exit 1
  | Grover_ir.Verify.Invalid_ir m ->
      emit_diag fmt ?file (Diag.errorf ~pass:"verify" "invalid IR: %s" m);
      exit 1
  | Grover_ir.Emit_c.Unstructured m ->
      emit_diag fmt ?file (Diag.errorf ~pass:"emit-c" "cannot emit OpenCL C: %s" m);
      exit 1
  | Cache.Cache_error m ->
      (* An unusable cache directory; the message names it. *)
      emit_diag fmt (Diag.errorf ~pass:"cache" "%s" m);
      exit 1

let parse_pipeline fmt ?file (spec : string) : Pass.t list =
  match Pass.parse spec with
  | Ok ps -> ps
  | Error d ->
      emit_diag fmt ?file d;
      exit 1

let mk_ctx ~verify_each ~print_changed () =
  Pass.ctx ~verify_each ~print_changed ~print:print_string ()

(* The context of an instrumented run ([None] otherwise: the run may read
   the cache). *)
let instrumented_ctx ~time_passes ~print_changed ~verify_each : Pass.ctx option
    =
  if time_passes || print_changed || verify_each then
    Some (mk_ctx ~verify_each ~print_changed ())
  else None

(* The diagnostics an artifact's builds emitted, each with [file]. *)
let art_diags (file : string option) (art : Cache.artifact) :
    (string option * Diag.t) list =
  List.concat_map
    (fun ka -> List.map (fun d -> (file, d)) ka.Cache.ka_diags)
    art.Cache.art_kernels

(* After everything ran: surface the artifacts' diagnostics, the timing of
   an instrumented run and the cache line, and fail if a diagnostic
   reached error severity. *)
let finish fmt ~time_passes (ctx : Pass.ctx option) (cache : Cache.t option)
    (diags : (string option * Diag.t) list) : unit =
  List.iter (fun (file, d) -> emit_diag fmt ?file d) diags;
  (match ctx with Some c when time_passes -> emit_timing fmt c | _ -> ());
  emit_cache_stats cache;
  if List.exists (fun (_, d) -> Diag.is_error d) diags then exit 1

(* -- transform ---------------------------------------------------------------- *)

(* Grover's outcome on kernel [name]: its reports and rejections, then the
   header of the transformed kernel printed next. *)
let print_grover_outcome (name : string) (o : Grover_core.Grover.outcome) :
    unit =
  List.iter
    (fun e -> print_endline (Grover_core.Report.to_string e))
    o.Grover_core.Grover.reports;
  List.iter
    (fun (n, r) -> Printf.printf "; rejected %s: %s\n" n r)
    o.Grover_core.Grover.rejected;
  Printf.printf "; === %s (local memory disabled: %s) ===\n" name
    (if o.Grover_core.Grover.transformed = [] then "nothing to do"
     else String.concat ", " o.Grover_core.Grover.transformed)

let transform_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"KERNEL.cl")
  in
  let only =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"NAME"
          ~doc:"Restrict the transformation to the named local buffer(s).")
  in
  let show_before =
    Arg.(
      value & flag
      & info [ "show-before" ] ~doc:"Also print the IR before the pass.")
  in
  let emit_c =
    Arg.(
      value & flag
      & info [ "emit-c" ]
          ~doc:
            "Print the transformed kernel as OpenCL C source (for a vendor \
             runtime) instead of IR.")
  in
  let run file only defines show_before emit_c passes time_passes print_changed
      verify_each fmt cache_dir no_cache =
    let src = read_file file in
    let only = if only = [] then None else Some only in
    let custom =
      Option.map (fun spec -> parse_pipeline fmt ~file spec) passes
    in
    let ctx = instrumented_ctx ~time_passes ~print_changed ~verify_each in
    guarded fmt ~file (fun () ->
        let cache = cache_for ~cache_dir ~no_cache ~instrumented:(ctx <> None) in
        let pipeline =
          Option.value custom
            ~default:[ Grover_passes.Pipeline.normalize_pass ]
        in
        let request variant = Cache.request ~defines ~pipeline ~variant src in
        (* With a custom pipeline the user decides where (and whether)
           Grover runs; the default path runs it after normalisation, and
           --show-before prints the with_lm build. *)
        let rqs =
          match custom with
          | Some _ -> [ request Cache.With_lm ]
          | None when show_before ->
              [ request (Cache.Without_lm only); request Cache.With_lm ]
          | None -> [ request (Cache.Without_lm only) ]
        in
        let art, before =
          match artifacts ?ctx cache rqs with
          | [ art ] -> (art, art)
          | [ art; before ] -> (art, before)
          | _ -> assert false
        in
        List.iter2
          (fun (ka : Cache.kernel_art) (bka : Cache.kernel_art) ->
            if show_before then begin
              Printf.printf "; === %s (with local memory) ===\n"
                ka.Cache.ka_name;
              print_string (Grover_ir.Printer.func_to_string bka.Cache.ka_fn)
            end;
            Option.iter
              (print_grover_outcome ka.Cache.ka_name)
              ka.Cache.ka_outcome;
            if emit_c then print_string (Grover_ir.Emit_c.kernel_to_c ka.Cache.ka_fn)
            else print_string (Grover_ir.Printer.func_to_string ka.Cache.ka_fn))
          art.Cache.art_kernels before.Cache.art_kernels;
        finish fmt ~time_passes ctx cache (art_diags (Some file) art))
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Disable local memory usage in an OpenCL kernel file.")
    Term.(
      ret
        (const run $ file $ only $ defines_arg $ show_before $ emit_c
       $ passes_arg $ time_passes_arg $ print_changed_arg $ verify_each_arg
       $ diag_format_arg $ cache_dir_arg $ no_cache_arg))

(* -- report -------------------------------------------------------------------- *)

(* The execution path [fn] would take: [Runtime.default_path], the plan
   with no overrides for a group of at most [Interp.max_lane_width]
   work-items. The kernel is compiled but nothing is executed. Returns
   the path line plus the {!Regions} lane verdict of each parallel
   region. *)
let path_info (fn : Grover_ir.Ssa.func) : string * string list =
  let c = Grover_ocl.Interp.prepare fn in
  let v = c.Grover_ocl.Interp.regions in
  let path =
    match Runtime.default_path c with
    | Runtime.Lanes -> Printf.sprintf "wg-vec, %d lanes" Grover_ocl.Interp.max_lane_width
    | p -> Runtime.string_of_path p
  in
  let regions =
    match v with
    | Grover_ir.Regions.Fallback _ -> []
    | Grover_ir.Regions.Formed info ->
        Array.to_list
          (Array.map Grover_ir.Regions.verdict_string info.Grover_ir.Regions.lane_entries)
  in
  (Printf.sprintf "%s (%s)" path (Grover_ir.Regions.describe v), regions)

let report_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"KERNEL.cl")
  in
  let run file defines local fmt cache_dir =
    let src = read_file file in
    (* A populated autotune DB (under the cache dir) adds a "tuned:" line
       per kernel: the recorded winner for each measured launch site. *)
    let db =
      match resolve_cache_dir cache_dir with
      | Some dir ->
          let f = Atdb.default_file ~cache_dir:dir in
          if Sys.file_exists f then Some (Atdb.load f) else None
      | None -> None
    in
    guarded fmt ~file (fun () ->
        let cache = cache_for ~cache_dir ~no_cache:false ~instrumented:false in
        let saw_error = ref false in
        (* The legality verdict and the first path describe the with_lm
           build; Grover's reports and the second path the without_lm one. *)
        let with_lm, without_lm =
          match
            artifacts cache
              [ Cache.request ~defines src;
                Cache.request ~defines ~variant:(Cache.Without_lm None) src ]
          with
          | [ w; wo ] -> (w.Cache.art_kernels, wo.Cache.art_kernels)
          | _ -> assert false
        in
        List.iter2
          (fun (w : Cache.kernel_art) (wo : Cache.kernel_art) ->
            let name = w.Cache.ka_name in
            let khash = Cache.kernel_hash ~source:src ~defines ~name in
            let actx = mk_ctx ~verify_each:false ~print_changed:false () in
            Grover_analysis.Analysis.analyze ?local_size:local actx
              w.Cache.ka_fn;
            let legality =
              Grover_analysis.Analysis.legality (Pass.diags actx)
            in
            let with_lm_path, with_lm_regions = path_info w.Cache.ka_fn in
            let o = Option.get wo.Cache.ka_outcome in
            let without_lm_path, without_lm_regions = path_info wo.Cache.ka_fn in
            Printf.printf "kernel %s:\n" name;
            List.iter
              (fun e -> print_endline (Grover_core.Report.to_string e))
              o.Grover_core.Grover.reports;
            List.iter
              (fun (n, r) -> Printf.printf "  rejected %s: %s\n" n r)
              o.Grover_core.Grover.rejected;
            Printf.printf "  legality: %s\n" legality;
            let print_regions version regions =
              List.iteri
                (fun e r ->
                  Printf.printf "    region %d: %s\n" e r;
                  Pass.remarkf actx ~pass:"lane-check" ~code:"GRV-LANE"
                    "%s: region %d (%s): %s" name e version r)
                regions
            in
            Printf.printf "  execution path (with local memory): %s\n"
              with_lm_path;
            print_regions "with local memory" with_lm_regions;
            Printf.printf "  execution path (local memory disabled): %s\n"
              without_lm_path;
            print_regions "local memory disabled" without_lm_regions;
            (match db with
            | None -> ()
            | Some db ->
                List.iter
                  (fun (e : Atdb.entry) ->
                    if e.Atdb.e_kernel = name && e.Atdb.e_khash = khash then
                      let gx, gy, gz = e.Atdb.e_global
                      and lx, ly, lz = e.Atdb.e_local in
                      Printf.printf
                        "  tuned: %s [%s path%s] for %d,%d,%d/%d,%d,%d on %s \
                         (np %.2f)\n"
                        e.Atdb.e_version e.Atdb.e_path
                        (if e.Atdb.e_lane_width > 1 then
                           Printf.sprintf ", %d lanes" e.Atdb.e_lane_width
                         else "")
                        gx gy gz lx ly lz e.Atdb.e_platform e.Atdb.e_np)
                  (Atdb.entries db));
            emit_diags fmt ~file (Pass.diags actx);
            if Pass.errors actx <> [] then saw_error := true)
          with_lm without_lm;
        emit_cache_stats cache;
        if !saw_error then exit 1)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Print the GL/LS/LL/nGL index analysis and the static legality \
          verdict (barrier-check, race-check, bounds-check) without \
          transforming. $(b,--cache-dir) supplies both compiled versions \
          from the compile cache; with a populated autotune DB there, it \
          also prints the recorded $(b,tuned:) winner per kernel.")
    Term.(
      ret
        (const run $ file $ defines_arg $ local_arg $ diag_format_arg
       $ cache_dir_arg))

(* -- sanitize ------------------------------------------------------------------- *)

(* Run the static passes on a normalised kernel; returns true if they
   reached error severity. Diagnostics are emitted immediately. *)
let static_half fmt ?file ~local (fn : Grover_ir.Ssa.func) : bool =
  let actx = mk_ctx ~verify_each:false ~print_changed:false () in
  Grover_analysis.Analysis.analyze ?local_size:local actx fn;
  emit_diags fmt ?file (Pass.diags actx);
  Pass.errors actx <> []

(* Sanitize a kernel file by synthesizing a launch: one work-group (races
   are intra-group), every pointer argument bound to a fresh buffer with
   deterministic contents, scalar arguments from --arg or defaults. *)
let sanitize_file fmt ~(file : string) ~(kernel : string option)
    ~(global : (int * int * int) option) ~(local : (int * int * int) option)
    ~(elems : int option) ~(scalars : (string * float) list)
    ~(defines : (string * string) list) : bool =
  let module Ssa = Grover_ir.Ssa in
  let art = Cache.build_artifact (Cache.request ~defines (read_file file)) in
  let fns = List.map (fun ka -> ka.Cache.ka_fn) art.Cache.art_kernels in
  let fn =
    match kernel with
    | Some k -> (
        match List.find_opt (fun f -> f.Ssa.f_name = k) fns with
        | Some f -> f
        | None ->
            emit_diag fmt ~file (Diag.errorf "kernel %s not found in %s" k file);
            exit 1)
    | None -> (
        match fns with
        | f :: _ -> f
        | [] ->
            emit_diag fmt ~file (Diag.errorf "no kernels in %s" file);
            exit 1)
  in
  let static_errors = static_half fmt ~file ~local fn in
  let local =
    match local with
    | Some l -> l
    | None -> fst (Grover_analysis.Config.box_for fn)
  in
  let global = Option.value global ~default:local in
  let cfg = { Runtime.global; local; queues = 1 } in
  (* A launch the runtime would refuse is a usage error, not a finding. *)
  (try Runtime.check_geometry cfg
   with Runtime.Launch_error m -> Diag.fatalf ~file ~pass:"sanitize" "%s" m);
  let gx, gy, gz = global in
  let elems = match elems with Some n -> n | None -> max 64 (4 * gx * gy * gz) in
  let mem = Grover_ocl.Memory.create () in
  let args =
    List.map
      (fun (a : Ssa.arg) ->
        match a.Ssa.a_ty with
        | Ssa.Ptr (_, elem_ty) ->
            let buf =
              Grover_ocl.Memory.alloc mem ~name:a.Ssa.a_name elem_ty elems
            in
            if Ssa.ty_is_float elem_ty then
              Grover_ocl.Memory.fill_floats buf (fun i ->
                  float_of_int (i mod 17) *. 0.25)
            else Grover_ocl.Memory.fill_ints buf (fun i -> i mod 13);
            Runtime.Abuf buf
        | t when Ssa.ty_is_integer t ->
            Runtime.Aint
              (match List.assoc_opt a.Ssa.a_name scalars with
              | Some v -> int_of_float v
              | None -> gx)
        | _ ->
            Runtime.Afloat
              (Option.value (List.assoc_opt a.Ssa.a_name scalars) ~default:1.0))
      fn.Ssa.f_args
  in
  let compiled = Grover_ocl.Interp.prepare fn in
  let dyn =
    try
      let _totals, findings =
        Runtime.run_sanitized compiled ~cfg ~args ~mem ()
      in
      List.map (Grover_ocl.Sanitize.to_diag ~file) findings
    with Runtime.Launch_error m ->
      (* The geometry was checked above: what remains is barrier
         divergence. *)
      [ Diag.errorf ~file ~pass:"sanitize" ~code:"GRV-SAN-DIV" "%s" m ]
  in
  emit_diags fmt dyn;
  Printf.printf "%s: %s\n" fn.Ssa.f_name
    (match List.length dyn with
    | 0 -> "sanitizer clean"
    | 1 -> "1 sanitizer finding"
    | n -> Printf.sprintf "%d sanitizer findings" n);
  static_errors || dyn <> []

(* Sanitize a bundled benchmark: its real workload, geometry and output
   validation, via the suite harness. *)
let sanitize_case fmt (case : Kit.case) ~(scale : int) : bool =
  let r = H.sanitize_run ~scale case H.With_lm in
  let static_errors =
    static_half fmt ~local:(Some r.H.sz_local) r.H.sz_fn
  in
  let dyn = List.map (fun f -> Grover_ocl.Sanitize.to_diag f) r.H.sz_findings in
  emit_diags fmt dyn;
  let check_failed =
    match r.H.sz_check with
    | Ok () -> false
    | Error m ->
        emit_diag fmt
          (Diag.errorf ~pass:"sanitize" "sanitized run produced wrong output: %s"
             m);
        true
  in
  Printf.printf "%-11s %s\n" case.Kit.id
    (match List.length dyn with
    | 0 -> "sanitizer clean"
    | 1 -> "1 sanitizer finding"
    | n -> Printf.sprintf "%d sanitizer findings" n);
  static_errors || dyn <> [] || check_failed

let sanitize_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A kernel file, a bundled benchmark id (see $(b,groverc list)) or \
             $(b,all) for the whole suite.")
  in
  let kernel =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel" ] ~docv:"NAME"
          ~doc:"Kernel to launch (file targets; default: the first one).")
  in
  let global =
    Arg.(
      value
      & opt (some size_conv) None
      & info [ "global" ] ~docv:"X[,Y[,Z]]"
          ~doc:"Global work size (file targets; default: one work-group).")
  in
  let elems =
    Arg.(
      value
      & opt (some int) None
      & info [ "elems" ] ~docv:"N"
          ~doc:
            "Elements per synthesized buffer argument (file targets; default: \
             4x the global work size).")
  in
  let scalars =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "arg" ] ~docv:"NAME=VALUE"
          ~doc:
            "Value for a scalar kernel argument (file targets; default: the \
             x-extent of the global size for ints, 1.0 for floats).")
  in
  let run target kernel global local elems scalars defines scale fmt =
    ignore analyze_pass;
    if Sys.file_exists target then
      guarded fmt ~file:target (fun () ->
          if
            sanitize_file fmt ~file:target ~kernel ~global ~local ~elems
              ~scalars ~defines
          then exit 1)
    else
      match suite_cases target with
      | Error m -> `Error (false, m)
      | Ok cases ->
          guarded fmt (fun () ->
              let failed =
                try
                  List.fold_left
                    (fun acc c -> sanitize_case fmt c ~scale || acc)
                    false cases
                with H.Harness_error m ->
                  emit_diag fmt (Diag.errorf ~pass:"sanitize" "%s" m);
                  true
              in
              if failed then exit 1)
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Execute a kernel under the dynamic race/out-of-bounds sanitizer \
          (shadow memory with per-work-item last-accessor metadata), after \
          running the static legality passes. Exits 1 on any finding.")
    Term.(
      ret
        (const run $ target $ kernel $ global $ local_arg $ elems $ scalars
       $ defines_arg $ scale_arg 4 $ diag_format_arg))

(* -- pipeline (also the default command) --------------------------------------- *)

(* What to run the pipeline over: a kernel file on disk, a bundled
   benchmark id, or "all" = every case of the paper's Table I suite, as
   (display name, file, defines, source). *)
let pipeline_targets (target : string) (defines : (string * string) list) :
    ((string * string option * (string * string) list * string) list, string)
    result =
  if Sys.file_exists target then
    Ok [ (target, Some target, defines, read_file target) ]
  else
    Result.map
      (List.map (fun (c : Kit.case) ->
           (c.Kit.id, None, c.Kit.defines, c.Kit.source)))
      (suite_cases target)

let pipeline_term =
  let target =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"TARGET"
          ~doc:
            "A kernel file, a bundled benchmark id (see $(b,groverc list)) or \
             $(b,all) for the whole suite.")
  in
  let run target defines passes time_passes print_changed verify_each fmt
      cache_dir no_cache =
    ignore grover_pass;
    let ps =
      match passes with
      | Some spec -> parse_pipeline fmt spec
      | None -> [ Grover_passes.Pipeline.normalize_pass ]
    in
    let ctx = instrumented_ctx ~time_passes ~print_changed ~verify_each in
    match pipeline_targets target defines with
    | Error m -> `Error (false, m)
    | Ok targets ->
        let file = match targets with [ (_, f, _, _) ] -> f | _ -> None in
        guarded fmt ?file (fun () ->
            let cache =
              cache_for ~cache_dir ~no_cache ~instrumented:(ctx <> None)
            in
            let arts =
              artifacts ?ctx cache
                (List.map
                   (fun (_, _, defines, src) ->
                     Cache.request ~defines ~pipeline:ps src)
                   targets)
            in
            List.iter2
              (fun (name, _, _, _) (art : Cache.artifact) ->
                List.iter
                  (fun (ka : Cache.kernel_art) ->
                    Printf.printf "%-12s %-24s %4d -> %4d instrs  %s\n" name
                      ka.Cache.ka_name ka.Cache.ka_before ka.Cache.ka_after
                      (if ka.Cache.ka_changed then "changed" else "unchanged"))
                  art.Cache.art_kernels)
              targets arts;
            finish fmt ~time_passes ctx cache
              (List.concat
                 (List.map2 (fun (_, file, _, _) -> art_diags file) targets arts)))
  in
  Term.(
    ret
      (const run $ target $ defines_arg $ passes_arg $ time_passes_arg
     $ print_changed_arg $ verify_each_arg $ diag_format_arg $ cache_dir_arg
     $ no_cache_arg))

let pipeline_cmd =
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Run a pass pipeline (default: normalize) over a kernel file, a \
          bundled benchmark or the whole suite, with per-pass diagnostics \
          and timing. This is also the default command: \
          $(b,groverc -passes=... --time-passes) runs over the whole suite.")
    pipeline_term

(* -- passes --------------------------------------------------------------------- *)

let passes_cmd =
  let run () =
    ignore grover_pass;
    List.iter
      (fun p -> Printf.printf "%-14s %s\n" (Pass.name p) (Pass.descr p))
      (Pass.all ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "passes" ~doc:"List the registered passes and combinators.")
    Term.(ret (const run $ const ()))

(* -- autotune ------------------------------------------------------------------- *)

(* Record the tuning decision for [case] at workload [w]'s launch geometry
   in the autotune DB [db_file]. *)
let record_winner ~(db_file : string) (case : Kit.case) (w : Kit.workload)
    ~winner ~path ~lane_width ~np ~t_with ~t_without ~tuned_by : unit =
  let db = Atdb.load db_file in
  Atdb.record db
    {
      Atdb.e_kernel = case.Kit.kernel;
      e_khash =
        Cache.kernel_hash ~source:case.Kit.source ~defines:case.Kit.defines
          ~name:case.Kit.kernel;
      e_platform = Atdb.host_platform;
      e_global = w.Kit.global;
      e_local = w.Kit.local;
      e_version = winner;
      e_path = path;
      e_lane_width = lane_width;
      e_np = np;
      e_t_with = t_with;
      e_t_without = t_without;
      e_tuned_by = tuned_by;
    };
  Atdb.save db

let autotune_cmd =
  let bench =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK"
          ~doc:
            "A bundled benchmark id (e.g. NVD-MT; see groverc list), or \
             $(b,all) for the whole suite.")
  in
  let platform =
    Arg.(
      value & opt string "SNB"
      & info [ "platform" ] ~docv:"NAME"
          ~doc:"Simulated platform: Fermi, Kepler, Tahiti, SNB, Nehalem, MIC.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Also measure host wall-clock throughput of both versions on $(docv) \
             OCaml domains (0 = recommended domain count). The simulated timing \
             above is unaffected.")
  in
  let save =
    Arg.(
      value & opt bool true
      & info [ "save" ] ~docv:"BOOL"
          ~doc:
            "Persist the host wall-clock winner (version, execution path, \
             lane width) into the autotune database, keyed by kernel content \
             hash, platform and launch geometry; $(b,groverc report) prints \
             it. Default $(b,true); $(b,--save=false) only prints.")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"N"
          ~doc:
            "Wall-clock repetitions per version; the minimum is recorded \
             (noise only ever slows a run down).")
  in
  let run_case ~plat ~platform ~scale ~domains ~save ~db_file ~reps
      (case : Kit.case) =
    let cmp = H.compare case ~platform:plat ~scale in
    Printf.printf "%s on %s:\n" cmp.H.case_id platform;
    Printf.printf "  with local memory:    %.3f ms [%s path]\n"
      (cmp.H.with_lm.H.seconds *. 1e3)
      cmp.H.with_lm.H.path;
    Printf.printf "  without local memory: %.3f ms [%s path]\n"
      (cmp.H.without_lm.H.seconds *. 1e3)
      cmp.H.without_lm.H.path;
    Printf.printf "  normalized perf:      %.2f -> keep the version %s\n"
      cmp.H.normalized
      (if cmp.H.normalized > 1.0 then "WITHOUT local memory"
       else "WITH local memory");
    let wc =
      (* Host wall-clock timing, min-of-N per version: printed when
         --domains asks for it, recorded when --save (the default). *)
      if save || domains <> 1 then
        Some
          (List.map
             (fun v ->
               let fn, _ = H.compile_version case v in
               (v, H.wallclock ~domains ~reps case fn ~scale))
             [ H.With_lm; H.Without_lm ])
      else None
    in
    (match wc with
    | Some runs when domains <> 1 ->
        Printf.printf "host throughput (%s domain%s requested):\n"
          (if domains = 0 then "auto" else string_of_int domains)
          (if domains = 1 then "" else "s");
        List.iter
          (fun (v, r) ->
            let label =
              match v with
              | H.With_lm -> "with local memory:"
              | H.Without_lm -> "without local memory:"
            in
            Printf.printf
              "  %-21s %.3f ms, %.0f work-items/sec [%s path, %d pool \
               domain%s]\n"
              label (r.H.wc_seconds *. 1e3)
              (float_of_int r.H.wc_items /. r.H.wc_seconds)
              r.H.wc_path r.H.wc_domains
              (if r.H.wc_domains = 1 then "" else "s"))
          runs
    | _ -> ());
    match (save, wc) with
    | true, Some runs ->
        let rw = List.assoc H.With_lm runs
        and rwo = List.assoc H.Without_lm runs in
        let np = rw.H.wc_seconds /. rwo.H.wc_seconds in
        let winner, wr =
          if np > 1.0 then ("without_lm", rwo) else ("with_lm", rw)
        in
        let w = case.Kit.mk ~scale in
        record_winner ~db_file case w ~winner ~path:wr.H.wc_path
          ~lane_width:wr.H.wc_lane_width ~np ~t_with:rw.H.wc_seconds
          ~t_without:rwo.H.wc_seconds ~tuned_by:Atdb.tuned_by_measured;
        let gx, gy, gz = w.Kit.global and lx, ly, lz = w.Kit.local in
        Printf.printf
          "  saved: %s [%s path%s] for %d,%d,%d/%d,%d,%d (host np %.2f, min \
           of %d) -> %s\n"
          winner wr.H.wc_path
          (if wr.H.wc_lane_width > 1 then
             Printf.sprintf ", %d lanes" wr.H.wc_lane_width
           else "")
          gx gy gz lx ly lz np reps db_file
    | _ -> ()
  in
  let run bench platform scale domains save db_file reps =
    match (suite_cases bench, Grover_memsim.Platform.by_name platform) with
    | Error m, _ -> `Error (false, m)
    | _, None -> `Error (false, "unknown platform " ^ platform)
    | _ when reps < 1 -> `Error (false, "--reps must be >= 1")
    | Ok cases, Some plat ->
        List.iter
          (run_case ~plat ~platform ~scale ~domains ~save ~db_file ~reps)
          cases;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Run a bundled benchmark with and without local memory, pick the \
          faster version, and record the winner in the persistent autotune \
          database (disable with $(b,--save=false)).")
    Term.(
      ret
        (const run $ bench $ platform $ scale_arg 2 $ domains $ save
       $ db_file_arg $ reps))

(* -- promote -------------------------------------------------------------------- *)

(* The insertion direction of the bidirectional optimizer: promote reused
   global loads back into __local tiles (lib/promote), validate the result
   (race certification + sanitizer + output check), and optionally pick the
   overall winner — with_lm / without_lm / promoted — analytically
   (--predict, memsim model) or by wall-clock (--measure), recording the
   decision into the autotune DB with its provenance. *)
let promote_cmd =
  let module Promote = Grover_promote.Promote in
  let module Predict = Grover_memsim.Predict in
  let module P = Grover_memsim.Platform in
  let target =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "A kernel file, a bundled benchmark id (see $(b,groverc list)), \
             or $(b,all) for the whole suite.")
  in
  let predict =
    Arg.(
      value & flag
      & info [ "predict" ]
          ~doc:
            "Rank with_lm / without_lm / promoted analytically with the \
             memsim cost model (no timing) and record the winner in the \
             autotune database with $(b,tuned-by: predictor).")
  in
  let measure =
    Arg.(
      value & flag
      & info [ "measure" ]
          ~doc:
            "Wall-clock all three variants on the host (min of $(b,--reps)) \
             and record the winner with $(b,tuned-by: measured).")
  in
  let reps =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"N"
          ~doc:"Wall-clock repetitions per variant for $(b,--measure).")
  in
  let print_outcome indent (o : Promote.outcome) =
    List.iter
      (fun (name, reuse) ->
        Printf.printf "%sstaged %s through __local (x%d reuse)\n" indent name
          reuse)
      o.Promote.promoted;
    if o.Promote.tile_bytes > 0 then
      Printf.printf "%s__local bytes added: %d\n" indent o.Promote.tile_bytes;
    List.iter
      (fun (n, r) -> Printf.printf "%snot staged %s: %s\n" indent n r)
      o.Promote.p_rejected
  in
  (* One suite case: promote, validate, optionally rank and record. Returns
     false when a promoted kernel fails validation or a ranked variant
     produces a wrong result. *)
  let run_case ~predict ~measure ~scale ~reps ~db_file (case : Kit.case) : bool
      =
    let pm = H.promote_run ~scale case in
    let o = pm.H.pm_outcome in
    let n = List.length o.Promote.promoted in
    Printf.printf "%s: %s\n" case.Kit.id
      (if n = 0 then "no promotion (kernel left as-is)"
       else
         Printf.sprintf "promoted %d load%s into __local tiles" n
           (if n = 1 then "" else "s"));
    print_outcome "  " o;
    let promoted_ok =
      if n = 0 then true
      else begin
        Printf.printf "  race check: %s\n"
          (if pm.H.pm_race_free then "race-free" else "NOT RACE-FREE");
        Printf.printf "  sanitizer:  %s\n"
          (match pm.H.pm_findings with
          | [] -> "clean"
          | fs -> Printf.sprintf "%d finding(s)" (List.length fs));
        Printf.printf "  output:     %s\n"
          (match pm.H.pm_check with
          | Ok () -> "matches host reference"
          | Error m -> "WRONG: " ^ m);
        pm.H.pm_race_free && pm.H.pm_findings = []
        && pm.H.pm_check = Ok ()
      end
    in
    if (not promoted_ok) || not (predict || measure) then promoted_ok
    else begin
      let w = case.Kit.mk ~scale in
      let lx, ly, lz = w.Kit.local in
      let wg = lx * ly * lz in
      let fn_with, _ = H.compile_version case H.With_lm in
      let fn_without, _ = H.compile_version case H.Without_lm in
      let variants =
        [ ("with_lm", fn_with); ("without_lm", fn_without) ]
        @ (if n > 0 then [ ("promoted", pm.H.pm_fn) ] else [])
      in
      (* Each variant runs once on the host to collect the memory-traffic
         totals the model consumes — and to re-check its output. *)
      let execd =
        List.map
          (fun (label, fn) ->
            let totals, _, check, path = H.execute case fn ~scale ~platforms:[] in
            (label, fn, totals, path, check))
          variants
      in
      let wrong =
        List.filter_map
          (fun (label, _, _, _, check) ->
            match check with
            | Ok () -> None
            | Error m -> Some (label ^ ": " ^ m))
          execd
      in
      if wrong <> [] then begin
        List.iter (fun m -> Printf.printf "  WRONG OUTPUT %s\n" m) wrong;
        false
      end
      else begin
        let record ~winner ~path ~lane_width ~np ~t_with ~t_without ~tuned_by
            =
          record_winner ~db_file case w ~winner ~path ~lane_width ~np ~t_with
            ~t_without ~tuned_by;
          Printf.printf "  saved: %s (np %.2f) -> %s [tuned-by: %s]\n" winner
            np db_file tuned_by
        in
        if predict then begin
          let inputs =
            List.map
              (fun (label, fn, totals, _, _) ->
                ( label,
                  {
                    Predict.totals;
                    wg_size = wg;
                    vectorized = H.uses_vector_types fn;
                  } ))
              execd
          in
          let ranking = Predict.rank P.snb inputs in
          Printf.printf "  predictor ranking (%s model):\n" P.snb.P.name;
          List.iteri
            (fun i (r : Predict.ranked) ->
              Printf.printf "    %d. %-10s %.6f s\n" (i + 1)
                r.Predict.rk_label r.Predict.rk_seconds)
            ranking;
          let seconds_of l =
            (List.find
               (fun (r : Predict.ranked) -> r.Predict.rk_label = l)
               ranking)
              .Predict.rk_seconds
          in
          let winner = (List.hd ranking).Predict.rk_label in
          let _, _, _, wpath, _ =
            List.find (fun (l, _, _, _, _) -> l = winner) execd
          in
          record ~winner ~path:wpath ~lane_width:1
            ~np:(seconds_of "with_lm" /. seconds_of "without_lm")
            ~t_with:(seconds_of "with_lm")
            ~t_without:(seconds_of "without_lm")
            ~tuned_by:Atdb.tuned_by_predictor
        end;
        if measure then begin
          let timed =
            List.map
              (fun (label, fn, _, _, _) ->
                (label, H.wallclock ~reps case fn ~scale))
              execd
          in
          Printf.printf "  measured (min of %d):\n" reps;
          List.iter
            (fun (label, r) ->
              Printf.printf "    %-10s %.3f ms\n" label (r.H.wc_seconds *. 1e3))
            timed;
          let wl, wr =
            List.fold_left
              (fun (bl, br) (l, r) ->
                if r.H.wc_seconds < br.H.wc_seconds then (l, r) else (bl, br))
              (List.hd timed) (List.tl timed)
          in
          let t_of l = (List.assoc l timed).H.wc_seconds in
          record ~winner:wl ~path:wr.H.wc_path ~lane_width:wr.H.wc_lane_width
            ~np:(t_of "with_lm" /. t_of "without_lm")
            ~t_with:(t_of "with_lm") ~t_without:(t_of "without_lm")
            ~tuned_by:Atdb.tuned_by_measured
        end;
        true
      end
    end
  in
  (* A fresh build belongs to its caller, so promotion rewrites it in
     place. *)
  let run_file ~defines ~local file : bool =
    let art = Cache.build_artifact (Cache.request ~defines (read_file file)) in
    List.for_all
      (fun (ka : Cache.kernel_art) ->
        let fn = ka.Cache.ka_fn in
        let outcome =
          Grover_analysis.Config.with_local local (fun () ->
              Promote.run fn)
        in
        let n = List.length outcome.Promote.promoted in
        Printf.printf "%s: %s\n" fn.Grover_ir.Ssa.f_name
          (if n = 0 then "no promotion (kernel left as-is)"
           else
             Printf.sprintf "promoted %d load%s into __local tiles" n
               (if n = 1 then "" else "s"));
        print_outcome "  " outcome;
        if n = 0 then true
        else begin
          let reports, _box, _assumed =
            Grover_analysis.Config.with_local local (fun () ->
                Grover_analysis.Race.analyse fn)
          in
          let race_free =
            List.for_all
              (fun (r : Grover_analysis.Race.report) ->
                r.Grover_analysis.Race.r_verdict
                = Grover_analysis.Race.Race_free)
              reports
          in
          Printf.printf "  race check: %s\n"
            (if race_free then "race-free" else "NOT RACE-FREE");
          print_string (Grover_ir.Printer.func_to_string fn);
          race_free
        end)
      art.Cache.art_kernels
  in
  let run target predict measure scale reps defines db_file local fmt =
    if reps < 1 then `Error (false, "--reps must be >= 1")
    else if Sys.file_exists target then
      if predict || measure then
        `Error
          ( false,
            "--predict/--measure rank executions and need a bundled \
             benchmark (file targets have no workload)" )
      else
        guarded fmt ~file:target (fun () ->
            if not (run_file ~defines ~local target) then exit 1)
    else
      match suite_cases target with
      | Error m -> `Error (false, m)
      | Ok cases -> (
          try
            let ok =
              List.fold_left
                (fun acc case ->
                  run_case ~predict ~measure ~scale ~reps ~db_file case && acc)
                true cases
            in
            if ok then `Ok ()
            else `Error (false, "promotion validation failed (see above)")
          with H.Harness_error m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Stage reused global loads back into __local tiles (the insertion \
          direction of the bidirectional optimizer), validate the result, \
          and optionally record the with_lm / without_lm / promoted winner \
          in the autotune database ($(b,--predict) for the analytic model, \
          $(b,--measure) for wall-clock).")
    Term.(
      ret
        (const run $ target $ predict $ measure $ scale_arg 4 $ reps
       $ defines_arg $ db_file_arg $ local_arg $ diag_format_arg))

(* -- run ------------------------------------------------------------------------ *)

let run_cmd =
  let target =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"BENCHMARK"
          ~doc:
            "A bundled benchmark id (see $(b,groverc list)), or $(b,all) for \
             the whole suite.")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Independent copies of each (benchmark, version) launch to \
             enqueue — the whole set is submitted to one out-of-order \
             command queue and drained across the domain pool.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domain-pool width for the queue drain (0 = recommended domain \
             count; requests beyond the host's parallelism are clamped).")
  in
  let sequential =
    Arg.(
      value & flag
      & info [ "sequential" ]
          ~doc:
            "Run the same launch set serially (one launch at a time, one \
             domain) instead of through the queue — the baseline the queue \
             is measured against.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print each launch's event timeline — enqueue, submission to \
             the scheduler (dependencies resolved) and completion, the \
             OpenCL profiling-timestamp analogues — relative to the first \
             enqueue.")
  in
  let run target jobs scale domains sequential profile =
    match suite_cases target with
    | Error m -> `Error (false, m)
    | Ok _ when jobs < 1 -> `Error (false, "--jobs must be >= 1")
    | Ok _ when sequential && profile ->
        `Error
          ( false,
            "--profile reads the queue's event timestamps; it cannot be \
             combined with --sequential" )
    | Ok cases -> (
        let set =
          List.concat_map
            (fun c -> [ (c, H.With_lm); (c, H.Without_lm) ])
            cases
        in
        try
          let pls = H.prepare_launches ~jobs ~scale set in
          let seconds, events =
            if sequential then (fst (H.run_sequential pls), [])
            else begin
              let dt, evs = H.run_queued_events ~domains pls in
              (dt, evs)
            end
          in
          H.validate_launches pls;
          let items = H.launch_items pls in
          let requested = Runtime.resolve_domains domains in
          let width = min requested (Runtime.effective_domain_cap ()) in
          Printf.printf
            "%s: %d launches (%d jobs x %d kernel versions), %d work-items\n"
            (if sequential then "sequential" else "queued")
            (List.length pls) jobs (List.length set) items;
          Printf.printf "  %.3f ms, %.0f work-items/sec%s\n" (seconds *. 1e3)
            (float_of_int items /. seconds)
            (if sequential then ""
             else
               Printf.sprintf ", %d pool domain%s%s" width
                 (if width = 1 then "" else "s")
                 (if width < requested then
                    Printf.sprintf " (clamped from %d)" requested
                  else ""));
          Printf.printf "  all outputs validated against host references\n";
          if profile then begin
            let t0 =
              List.fold_left
                (fun acc (_, ev) ->
                  let q, _, _ = Grover_ocl.Event.profile ev in
                  min acc q)
                infinity events
            in
            Printf.printf
              "  event timeline (ms after first enqueue; wait = queued -> \
               submitted, exec = submitted -> completed):\n";
            List.iter
              (fun (label, ev) ->
                let q, s, c = Grover_ocl.Event.profile ev in
                Printf.printf
                  "    %-24s queued %+8.3f  submitted %+8.3f  completed \
                   %+8.3f  (wait %.3f, exec %.3f)\n"
                  label
                  ((q -. t0) *. 1e3)
                  ((s -. t0) *. 1e3)
                  ((c -. t0) *. 1e3)
                  ((s -. q) *. 1e3)
                  ((c -. s) *. 1e3))
              events
          end;
          `Ok ()
        with
        | H.Harness_error m -> `Error (false, m)
        | Runtime.Launch_error m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Submit bundled benchmarks (both kernel versions, $(b,--jobs) \
          copies each) to one out-of-order command queue and drain it over \
          the domain pool, validating every output.")
    Term.(
      ret
        (const run $ target $ jobs $ scale_arg 4 $ domains $ sequential
       $ profile))

(* -- cache ---------------------------------------------------------------------- *)

let cache_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
      & info [] ~docv:"ACTION"
          ~doc:"$(b,stats) prints the cache contents; $(b,clear) removes the \
                compiled artifacts (and, with $(b,--db), the autotune \
                database).")
  in
  let clear_db =
    Arg.(
      value & flag
      & info [ "db" ]
          ~doc:"With $(b,clear): also remove the autotune database.")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"N"
          ~doc:
            "With $(b,clear): instead of removing everything, trim the disk \
             tier to at most $(docv) bytes, evicting least-recently used \
             artifacts first (by mtime; cache hits refresh it). \
             $(b,GROVER_CACHE_MAX_BYTES) applies the same budget \
             automatically on every store.")
  in
  let run action clear_db max_bytes cache_dir =
    match resolve_cache_dir cache_dir with
    | None ->
        `Error
          ( false,
            "no cache directory configured (use --cache-dir or \
             GROVER_CACHE_DIR)" )
    | Some dir -> (
        let db_file = Atdb.default_file ~cache_dir:dir in
        match action with
        | `Stats ->
            let t = Cache.create ~dir () in
            let db_entries, measured, predicted =
              if Sys.file_exists db_file then begin
                let db = Atdb.load db_file in
                let m, p = Atdb.provenance_counts db in
                (Atdb.size db, m, p)
              end
              else (0, 0, 0)
            in
            Printf.printf "cache dir:        %s\n" dir;
            Printf.printf "artifacts:        %d (%d bytes)\n"
              (Cache.disk_size t) (Cache.disk_bytes t);
            Printf.printf "autotune entries: %d (%d measured, %d predictor)\n"
              db_entries measured predicted;
            `Ok ()
        | `Clear -> (
            let t = Cache.create ~dir () in
            match max_bytes with
            | Some mb when mb < 0 -> `Error (false, "--max-bytes must be >= 0")
            | Some mb ->
                let removed, freed = Cache.trim t ~max_bytes:mb in
                Printf.printf
                  "trimmed %d artifact%s (%d bytes) from %s; %d bytes kept\n"
                  removed
                  (if removed = 1 then "" else "s")
                  freed dir (Cache.disk_bytes t);
                `Ok ()
            | None ->
                let n = Cache.disk_size t in
                Cache.clear t;
                Printf.printf "removed %d artifact%s from %s\n" n
                  (if n = 1 then "" else "s")
                  dir;
                if clear_db && Sys.file_exists db_file then begin
                  Sys.remove db_file;
                  Printf.printf "removed %s\n" db_file
                end;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the content-addressed compile cache and the \
          autotune database.")
    Term.(ret (const run $ action $ clear_db $ max_bytes $ cache_dir_arg))

(* -- list ----------------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (c : Kit.case) ->
        Printf.printf "%-11s %-30s %s\n" c.Kit.id c.Kit.origin
          c.Kit.description)
      Suite.all;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the bundled benchmarks.")
    Term.(ret (const run $ const ()))

(* -- main ----------------------------------------------------------------------- *)

(* LLVM-style single-dash spelling: -passes=... is rewritten to the
   cmdliner-standard --passes=... before parsing. *)
let argv =
  Array.map
    (fun a ->
      if String.length a >= 7
         && String.sub a 0 7 = "-passes"
         && not (String.length a >= 8 && String.sub a 0 8 = "--passes")
      then "-" ^ a
      else a)
    Sys.argv

let () =
  (* A bad GROVER_FORCE_PATH fails every command the same way, before it
     runs, instead of wherever a launch first plans its path. *)
  (match Runtime.env_force_path () with
  | _ -> ()
  | exception Runtime.Launch_error m ->
      prerr_endline
        (Diag.to_string
           (Diag.errorf ~file:"$GROVER_FORCE_PATH" ~code:"GRV-ENV" "%s" m));
      exit 1);
  let info =
    Cmd.info "groverc" ~version:"1.0.0"
      ~doc:"Disable local memory usage in OpenCL kernels (Grover, ICPP 2014)."
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info ~default:pipeline_term
          [ transform_cmd; report_cmd; sanitize_cmd; pipeline_cmd; passes_cmd;
            autotune_cmd; promote_cmd; run_cmd; cache_cmd; list_cmd ]))
