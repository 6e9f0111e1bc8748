(** Grover — the compiler pass that disables local memory usage in OpenCL
    kernels (Fang, Sips, Jääskeläinen, Varbanescu; ICPP 2014).

    [run] takes a normalised kernel (see {!Grover_passes.Pipeline.normalize})
    and rewrites every selected software-cache use of local memory into
    direct global loads:

    + select candidates and classify GL/LS/LL operations ({!Access});
    + determine per-dimension data indexes ({!Affine_index}, {!Index});
    + create and solve the linear system for the thread-index
      correspondence ({!Solve});
    + duplicate the GL index chain with the solution substituted, insert
      the nGL, and replace the LL's uses ({!Rewrite});
    + clean up: DCE removes the dead staging code, and redundant local
      barriers are removed.

    Candidates that do not fit the software-cache pattern are left intact
    and reported with the reason, mirroring the paper's §VI-D limitations. *)

open Grover_ir
module Passes = Grover_passes
module Pass = Grover_passes.Pass
module Diag = Grover_support.Diag

type outcome = {
  transformed : string list;  (** candidate names rewritten *)
  rejected : (string * string) list;  (** candidate name, reason *)
  reports : Report.entry list;
  barriers_removed : int;
}

let no_candidates = { transformed = []; rejected = []; reports = []; barriers_removed = 0 }

(* Table-III-style outcomes become structured remarks on the pass-manager
   context instead of ad-hoc strings. *)
let emit_remarks (ctx : Pass.ctx option) (fn : Ssa.func) (o : outcome) : unit =
  match ctx with
  | None -> ()
  | Some c ->
      List.iter
        (fun name ->
          Pass.remarkf c ~pass:"grover" "%s: disabled local memory usage of '%s'"
            fn.Ssa.f_name name)
        o.transformed;
      List.iter
        (fun (name, reason) ->
          Pass.remarkf c ~pass:"grover" "%s: kept local buffer '%s': %s"
            fn.Ssa.f_name name reason)
        o.rejected;
      if o.barriers_removed > 0 then
        Pass.remarkf c ~pass:"grover" "%s: removed %d redundant local barrier%s"
          fn.Ssa.f_name o.barriers_removed
          (if o.barriers_removed = 1 then "" else "s")

(** Transform [fn] in place.

    @param only restrict the rewrite to local buffers with these source
    names (e.g. [["As"]] to reproduce NVD-MM-A). Buffers not selected are
    preserved untouched and do not appear in [rejected].
    @param ctx pass-manager context: Grover's internal cleanup pipeline is
    instrumented through it and the per-candidate outcomes are emitted as
    [remark] diagnostics. *)
let run ?(only : string list option) ?(ctx : Pass.ctx option) (fn : Ssa.func) :
    outcome =
  Atom.assign_phi_names fn;
  let selected name =
    match only with None -> true | Some names -> List.mem name names
  in
  let classified = Access.candidates fn in
  let plans, rejected =
    List.fold_left
      (fun (plans, rejected) c ->
        match c with
        | Error r ->
            if selected r.Access.rej_name then
              (plans, (r.Access.rej_name, r.Access.reason) :: rejected)
            else (plans, rejected)
        | Ok cand ->
            if not (selected cand.Access.cand_name) then (plans, rejected)
            else (
              match Rewrite.analyse fn cand with
              | Ok plan -> (plan :: plans, rejected)
              | Error e ->
                  (plans, (e.Rewrite.err_candidate, e.Rewrite.err_reason) :: rejected)))
      ([], []) classified
  in
  let plans = List.rev plans and rejected = List.rev rejected in
  if plans = [] then begin
    let o = { no_candidates with rejected } in
    emit_remarks ctx fn o;
    o
  end
  else begin
    let applied = List.map (fun plan -> (plan, Rewrite.apply fn plan)) plans in
    (* The staging code is now dead; remove it, then the barriers that only
       guarded it. Removing a barrier gives none of the cleanup passes
       anything new to do, so the cleanup runs once, before it. *)
    Passes.Pipeline.cleanup ?ctx fn;
    let barriers_removed = Rewrite.remove_local_barriers fn in
    Verify.run fn;
    let reports =
      List.map
        (fun (plan, ngls) ->
          Report.of_plan ~kernel:fn.Ssa.f_name ~barriers_removed plan ~ngls)
        applied
    in
    let o =
      {
        transformed =
          List.map (fun (p, _) -> p.Rewrite.cand.Access.cand_name) applied;
        rejected;
        reports;
        barriers_removed;
      }
    in
    emit_remarks ctx fn o;
    o
  end

(** Grover as a registered pass ("grover"), so custom [-passes=...]
    pipelines can place the transformation anywhere. The per-candidate
    outcome is reported through the context as remarks; the boolean is
    "did anything get rewritten". *)
let pass : Pass.t =
  Pass.register
    (Pass.make "grover"
       ~descr:"disable local memory usage (the paper's transformation)"
       (fun ctx fn ->
         let o = run ~ctx fn in
         o.transformed <> [] || o.barriers_removed > 0))
