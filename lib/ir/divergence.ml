(** Divergence analysis: which values and blocks can differ between the
    work-items of one work-group.

    Classic forward data-flow with control-dependence propagation:

    - seeds are [get_local_id]/[get_global_id] calls, every [Load]
      (memory contents are per-work-item in general — conservative) and
      every private [Alloca] (its address names per-work-item storage);
    - kernel arguments, constants, and launch-geometry builtins
      ([get_group_id], [get_local_size], ...) are uniform *within a group*,
      which is the scope that matters for barriers and local-memory races;
    - a conditional branch on a divergent value makes every block strictly
      between the branch and its immediate post-dominator
      control-divergent (work-items disagree on whether to execute it),
      and phis at the join merge values from divergent paths.

    The whole analysis runs to a fixpoint, so divergence feeding back
    through phis and nested branches is handled.

    Lives in [Grover_ir] (rather than the analysis library that consumes
    it for race/barrier checking) because barrier-region formation
    ({!Regions}) needs the same uniformity facts at kernel-compile time. *)

module H = Hashtbl

type t = {
  div_value : (int, unit) H.t;  (** iid of instructions with divergent results *)
  div_block : (int, unit) H.t;  (** bid of control-divergent blocks *)
  join_block : (int, unit) H.t;  (** bid of blocks joining divergent paths *)
}

let value_divergent (t : t) (v : Ssa.value) : bool =
  match v with Ssa.Vinstr i -> H.mem t.div_value i.iid | _ -> false

(** Group-uniformity, the complement used by the lane-batched executor:
    constants, kernel arguments and launch-geometry builtins are the same
    for every work-item of a group; an instruction result is uniform iff
    the fixpoint never marked it divergent. *)
let value_uniform (t : t) (v : Ssa.value) : bool = not (value_divergent t v)

let iid_divergent (t : t) (iid : int) : bool = H.mem t.div_value iid

(** Work-items of one group may disagree on whether they execute [b]. *)
let block_divergent (t : t) (b : Ssa.block) : bool = H.mem t.div_block b.bid

let divergent_call (callee : string) : bool =
  callee = "get_local_id" || callee = "get_global_id"

let compute (fn : Ssa.func) : t =
  let t =
    { div_value = H.create 64; div_block = H.create 16; join_block = H.create 16 }
  in
  let cfg = Cfg.compute fn in
  let pd = Postdom.compute fn in
  let changed = ref true in
  let mark tbl key = if not (H.mem tbl key) then begin H.add tbl key (); changed := true end in
  (* Influence region of a divergent branch at [x]: all blocks on paths
     from the successors of [x] up to, but excluding, ipdom(x). A fresh
     visited set per branch — a shared one would stop a later branch with
     a larger region too early. *)
  let mark_region (x : Ssa.block) : unit =
    let stop_bid =
      match Postdom.immediate pd x with
      | Some j ->
          mark t.join_block j.bid;
          j.bid
      | None -> -1
    in
    let seen = H.create 16 in
    let rec dfs b =
      if b.Ssa.bid <> stop_bid && not (H.mem seen b.Ssa.bid) then begin
        H.add seen b.Ssa.bid ();
        mark t.div_block b.Ssa.bid;
        List.iter dfs (Ssa.successors b)
      end
    in
    List.iter dfs (Ssa.successors x)
  in
  while !changed do
    changed := false;
    Ssa.iter_instrs
      (fun i ->
        if not (H.mem t.div_value i.iid) then
          let div =
            match i.op with
            | Ssa.Call { callee; args; _ } ->
                divergent_call callee || List.exists (value_divergent t) args
            | Ssa.Load _ -> true
            (* each work-item's private array is its own storage *)
            | Ssa.Alloca { aspace = Ssa.Private; _ } -> true
            | Ssa.Phi p ->
                (match i.parent with
                | Some b -> H.mem t.div_block b.bid || H.mem t.join_block b.bid
                | None -> true)
                || List.exists (fun (_, v) -> value_divergent t v) p.incoming
            | op -> List.exists (value_divergent t) (Ssa.operands op)
          in
          if div then mark t.div_value i.iid)
      fn;
    List.iter
      (fun b ->
        if Cfg.is_reachable cfg b then
          match b.Ssa.term with
          | Some { op = Ssa.Cond_br (c, _, _); _ } when value_divergent t c ->
              mark_region b
          | _ -> ())
      fn.Ssa.blocks
  done;
  t
