(** Barrier-region formation: the static side of pocl-style work-item
    loops.

    A kernel's CFG is partitioned at its [Barrier] instructions into
    {e parallel regions}: maximal stretches of code between two barriers
    (or between kernel entry / exit and the nearest barrier). When every
    barrier sits under group-uniform control flow, a work-group can be
    executed without any scheduler at all — each region runs as a plain
    [for]-loop over the group's work-items, and the loop only advances to
    the next region once the sweep finishes, which {e is} the barrier
    ("pocl: A Performance-Portable OpenCL Implementation" calls these
    work-item loops).

    This module answers the two static questions that executor needs:

    - {b verification}: is every (reachable) barrier in group-uniform
      control flow? Uses {!Divergence} — a barrier inside a block that
      work-items may disagree on executing cannot be a region boundary
      (OpenCL calls it undefined behaviour; our fiber scheduler keeps
      handling it dynamically, so such kernels fall back to fibers);
    - {b lane verdicts}: can each region run as lane batches, and which
      divergent branches does the lane compiler if-convert under a mask?
      Lane code runs a work-group only as one batch, so the values live
      across a barrier stay in that batch's lane slots and need no
      analysis here. These verdicts alone decide whether a kernel has
      lane code: one [Scalar] region sends it to the fiber scheduler. *)

open Ssa

(** A divergent diamond (or triangle) the lane compiler may if-convert:
    both arms are straight-line single-predecessor blocks of pure
    instructions, loads and stores, reconverging at the branch block's
    immediate post-dominator. [None] for an arm means that edge of the
    branch jumps straight to the join. *)
type diamond = {
  d_bid : int;  (** bid of the block whose divergent [Cond_br] heads it *)
  d_then : int option;  (** then-arm block bid, [None] = edge to the join *)
  d_else : int option;
  d_join : int;  (** join block bid — the branch's immediate post-dominator *)
}

(** Per-region-entry lane capability. [Lane]: group-uniform control
    throughout, plain lane batching. [Lane_masked n]: lane batching after
    if-converting [n] pure divergent diamonds under a per-lane predicate
    mask. [Scalar reason]: the region cannot run as a lane batch, so the
    kernel runs on fibers, and [reason] says why (located where the source
    carries positions). *)
type lane_verdict = Lane | Lane_masked of int | Scalar of string

let lane_ok = function Lane | Lane_masked _ -> true | Scalar _ -> false

type info = {
  barriers : instr array;
      (** dense, in block order then body order — the "barrier index"
          shared with the compiled executor *)
  n_regions : int;  (** barrier count + 1 *)
  lane_entries : lane_verdict array;
      (** per region entry (index 0 = kernel entry, index [b+1] = the
          continuation of barrier [b]): can the region be swept in lane
          batches? Every reachable block up to the next barrier must stay
          under group-uniform control — except classified {!diamond}s,
          which the lane compiler executes under a mask — and allocate no
          private memory. A [Scalar] region sends every launch to the
          fiber scheduler. *)
  diamonds : (int, diamond) Hashtbl.t;
      (** branch-block bid -> classified maskable diamond, shared across
          regions; the lane compiler looks its divergent branches up here *)
  div : Divergence.t;
      (** the uniformity facts behind [lane_entries]; the lane compiler
          reuses them to split values into uniform and varying slots *)
}

type verdict =
  | Formed of info
  | Fallback of string
      (** why region execution is unavailable; the fiber scheduler
          remains the (dynamically checked) execution path *)

let is_barrier (i : instr) = match i.op with Barrier _ -> true | _ -> false

(* [reason fmt loc]: a bail reason, suffixed " at file:line" when the
   source carries a position. *)
let located (what : string) (loc : Grover_support.Loc.t) : string =
  if Grover_support.Loc.is_dummy loc then what
  else Format.asprintf "%s at %a" what Grover_support.Loc.pp loc

(* Classify the divergent [Cond_br] ending [b] as an if-convertible
   diamond/triangle. Legal iff both arms reconverge at [b]'s immediate
   post-dominator, each non-trivial arm is a straight-line block with [b]
   as its only predecessor ending in [Br join], the arms hold no calls,
   barriers, allocas or phis (the lane executor evaluates pure
   instructions flat over every lane and runs loads, stores and integer
   division under the arm's per-lane guard, so nothing else with a side
   effect or a work-item-ordered resource may appear), and the join has
   no predecessors beyond the two diamond edges. *)
let classify_diamond ~(cfg : Cfg.t) ~(pdom : Postdom.t) (b : block)
    (t : block) (e : block) : (diamond * block, string) result =
  let branch_loc =
    match b.term with Some i -> i.iloc | None -> Grover_support.Loc.dummy
  in
  match Postdom.immediate pdom b with
  | None -> Error (located "divergent branch without a join point" branch_loc)
  | Some j ->
      if t.bid = e.bid then
        Error (located "degenerate divergent branch" branch_loc)
      else begin
        let arm (a : block) : (int option, string) result =
          if a.bid = j.bid then Ok None
          else if
            match Cfg.preds cfg a with [ p ] -> p.bid <> b.bid | _ -> true
          then
            Error
              (located "divergent branch arm with multiple predecessors"
                 branch_loc)
          else
            match a.term with
            | Some { op = Br tgt; _ } when tgt.bid = j.bid ->
                let rec scan = function
                  | [] -> Ok (Some a.bid)
                  | (i : instr) :: tl -> (
                      match i.op with
                      | Call _ ->
                          Error (located "call on a divergent arm" i.iloc)
                      | Barrier _ ->
                          Error (located "divergent barrier" i.iloc)
                      | Alloca _ ->
                          Error (located "alloca on a divergent arm" i.iloc)
                      | Phi _ -> Error (located "phi on a divergent arm" i.iloc)
                      | _ -> scan tl)
                in
                scan a.instrs
            | _ ->
                Error
                  (located "divergent branch arms do not reconverge"
                     branch_loc)
        in
        match (arm t, arm e) with
        | Error r, _ | _, Error r -> Error r
        | Ok dt, Ok de ->
            let tp = Option.value dt ~default:b.bid
            and ep = Option.value de ~default:b.bid in
            let jpreds =
              List.sort compare
                (List.map (fun (p : block) -> p.bid) (Cfg.preds cfg j))
            in
            if jpreds <> List.sort compare [ tp; ep ] then
              Error
                (located "join reachable from outside the divergent branch"
                   branch_loc)
            else
              Ok ({ d_bid = b.bid; d_then = dt; d_else = de; d_join = j.bid }, j)
      end

(* Lane capability of the region entered at instruction index [start] of
   block [b0]. Everything reachable up to the next barrier must stay
   under group-uniform control and allocate no private memory (the bump
   allocator hands out per-work-item addresses in flat work-item order,
   which a lane batch would permute) — with one exception: a divergent
   conditional branch heading a classified diamond is if-converted under a
   per-lane mask, recorded in [diamonds], and the walk continues at the
   join. Anything else divergent yields [Scalar] with the reason. *)
let lane_verdict_from ~(cfg : Cfg.t) ~(pdom : Postdom.t) (div : Divergence.t)
    (diamonds : (int, diamond) Hashtbl.t) (b0 : block) (start : int) :
    lane_verdict =
  let seen = Hashtbl.create 16 in
  let bail = ref None in
  let masked = ref 0 in
  let rec drop n l =
    if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
  in
  let rec walk (b : block) (start : int) : unit =
    if !bail = None then begin
      let visit (s : block) =
        if not (Hashtbl.mem seen s.bid) then begin
          Hashtbl.add seen s.bid ();
          walk s 0
        end
      in
      let rec scan = function
        | [] -> (
            match b.term with
            | Some { op = Cond_br (c, t, e); _ }
              when Divergence.value_divergent div c -> (
                if not (Cfg.is_reachable cfg b) then
                  (* an unreachable divergent branch never executes; any
                     verdict is sound, and the classifier needs CFG facts *)
                  ()
                else
                  match classify_diamond ~cfg ~pdom b t e with
                  | Ok (d, j) ->
                      Hashtbl.replace diamonds b.bid d;
                      incr masked;
                      visit j
                  | Error r -> bail := Some r)
            | _ -> List.iter visit (successors b))
        | (i : instr) :: tl -> (
            match i.op with
            | Barrier _ -> () (* the region ends here *)
            | Alloca { aspace = Private; _ } ->
                bail := Some (located "private alloca" i.iloc)
            | _ -> scan tl)
      in
      scan (drop start b.instrs)
    end
  in
  walk b0 start;
  match !bail with
  | Some r -> Scalar r
  | None -> if !masked = 0 then Lane else Lane_masked !masked

(* Instruction index just past [bar] within its block — where the
   barrier's continuation region enters the block. *)
let pos_after (b : block) (bar : instr) : int =
  let rec go k = function
    | [] -> k
    | (i : instr) :: tl -> if i.iid = bar.iid then k + 1 else go (k + 1) tl
  in
  go 0 b.instrs

let form (fn : func) : verdict =
  let barriers =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun i -> if is_barrier i then Some (b, i) else None)
          b.instrs)
      fn.blocks
  in
  let div = Divergence.compute fn in
  let cfg = Cfg.compute fn in
  let pdom = Postdom.compute fn in
  let diamonds : (int, diamond) Hashtbl.t = Hashtbl.create 4 in
  let lane_entries () =
    Array.of_list
      (List.map
         (fun (b, start) -> lane_verdict_from ~cfg ~pdom div diamonds b start)
         ((entry fn, 0)
         :: List.map (fun (b, bar) -> (b, pos_after b bar)) barriers))
  in
  if barriers = [] then
    Formed
      {
        barriers = [||];
        n_regions = 1;
        lane_entries = lane_entries ();
        diamonds;
        div;
      }
  else begin
    match
      List.find_opt
        (fun ((b : block), _) ->
          Cfg.is_reachable cfg b && Divergence.block_divergent div b)
        barriers
    with
    | Some (_, (i : instr)) ->
        Fallback
          (if Grover_support.Loc.is_dummy i.iloc then
             "barrier under divergent control flow"
           else
             Format.asprintf "barrier at %a under divergent control flow"
               Grover_support.Loc.pp i.iloc)
    | None ->
        Formed
          {
            barriers = Array.of_list (List.map snd barriers);
            n_regions = List.length barriers + 1;
            lane_entries = lane_entries ();
            diamonds;
            div;
          }
  end

let describe (v : verdict) : string =
  match v with
  | Formed i when Array.length i.barriers = 0 ->
      "barrier-free: one parallel region"
  | Formed i ->
      let nb = Array.length i.barriers in
      Printf.sprintf "%d uniform barrier%s -> %d parallel regions" nb
        (if nb = 1 then "" else "s")
        i.n_regions
  | Fallback reason -> reason

(** Human-readable per-region lane verdict, as printed by
    [groverc report]. A [Scalar] region sends the kernel to the fiber
    scheduler. *)
let verdict_string (v : lane_verdict) : string =
  match v with
  | Lane -> "lane batch"
  | Lane_masked n ->
      Printf.sprintf "lane batch (masked, %d diamond%s)" n
        (if n = 1 then "" else "s")
  | Scalar r -> "forces fibers: " ^ r
