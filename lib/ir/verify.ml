(** Structural and SSA well-formedness checks. Passes call this after
    mutating a function; tests call it on everything they build. *)

open Ssa
module Loc = Grover_support.Loc

exception Invalid_ir of string

let fail fmt = Format.kasprintf (fun m -> raise (Invalid_ir m)) fmt

(* Same, but citing the source span the instruction was lowered from, so a
   broken pass points back at the OpenCL C construct involved. *)
let fail_at (loc : Loc.t) fmt =
  Format.kasprintf
    (fun m ->
      let m =
        if Loc.is_dummy loc then m
        else Format.asprintf "%s (from source %a)" m Loc.pp loc
      in
      raise (Invalid_ir m))
    fmt

let check_types (i : instr) : unit =
  let t v = type_of v in
  let fail fmt = fail_at i.iloc fmt in
  (* Lowering addresses vector components by constant index only, and the
     closure compiler resolves them at compile time. *)
  let check_lane what lane n =
    match lane with
    | Cint (_, k) when k >= 0 && k < n -> ()
    | _ ->
        fail "%s lane must be a constant in 0..%d, got %a" what (n - 1)
          Printer.pp_value lane
  in
  match i.op with
  | Binop (b, x, y) ->
      if t x <> t y then
        fail "binop %s: operand types differ (%s)" (Printer.binop_name b)
          (Format.asprintf "%a vs %a" Printer.pp_ty (t x) Printer.pp_ty (t y));
      if binop_is_float b && not (ty_is_float (t x)) then
        fail "float binop on non-float type";
      if (not (binop_is_float b)) && not (ty_is_integer (t x)) then
        fail "integer binop on non-integer type"
  | Icmp (_, x, y) ->
      if t x <> t y then fail "icmp: operand types differ";
      if not (ty_is_integer (t x)) then fail "icmp on non-integer"
  | Fcmp (_, x, y) ->
      if t x <> t y then fail "fcmp: operand types differ";
      if not (ty_is_float (t x)) then fail "fcmp on non-float"
  | Select (c, x, y) ->
      if t c <> I1 then fail "select condition must be i1";
      if t x <> t y then fail "select arms differ in type"
  | Load { ptr; index } ->
      (match t ptr with
      | Ptr _ -> ()
      | _ -> fail "load from non-pointer");
      if not (ty_is_integer (t index)) then fail "load index must be integer"
  | Store { ptr; index; v } ->
      (match t ptr with
      | Ptr (_, elem) ->
          if elem <> t v then
            fail "store type mismatch: %s into %s*"
              (Format.asprintf "%a" Printer.pp_ty (t v))
              (Format.asprintf "%a" Printer.pp_ty elem)
      | _ -> fail "store to non-pointer");
      if not (ty_is_integer (t index)) then fail "store index must be integer"
  | Extract (v, lane) -> (
      match t v with
      | Vec (_, n) -> check_lane "extract" lane n
      | _ -> fail "extract from non-vector")
  | Insert (v, lane, s) -> (
      match t v with
      | Vec (e, n) ->
          if e <> t s then fail "insert scalar type mismatch";
          check_lane "insert" lane n
      | _ -> fail "insert into non-vector")
  | Vecbuild (ty, vs) -> (
      match ty with
      | Vec (e, n) ->
          if List.length vs <> n then fail "vecbuild arity mismatch";
          List.iter (fun v -> if t v <> e then fail "vecbuild element type") vs
      | _ -> fail "vecbuild of non-vector type")
  | Phi { incoming; p_ty } ->
      List.iter
        (fun (_, v) ->
          if t v <> p_ty then
            fail "phi incoming type %s differs from phi type %s"
              (Format.asprintf "%a" Printer.pp_ty (t v))
              (Format.asprintf "%a" Printer.pp_ty p_ty))
        incoming
  | Cond_br (c, _, _) -> if t c <> I1 then fail "cond_br condition must be i1"
  | Cast _ | Call _ | Alloca _ | Br _ | Ret | Barrier _ -> ()

let run (fn : func) : unit =
  (* Every block terminated; terminators only in terminator position. *)
  List.iter
    (fun b ->
      (match b.term with
      | None -> fail "block %s.%d lacks a terminator" b.b_name b.bid
      | Some t -> (
          match t.op with
          | Br _ | Cond_br _ | Ret -> ()
          | _ -> fail "block %s.%d has a non-terminator in tail position" b.b_name b.bid));
      List.iter
        (fun i ->
          match i.op with
          | Br _ | Cond_br _ | Ret ->
              fail "terminator in the middle of block %s.%d" b.b_name b.bid
          | _ -> ())
        b.instrs)
    fn.blocks;
  (* Instruction parents are consistent. *)
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.parent with
          | Some p when p.bid = b.bid -> ()
          | _ -> fail "instr %%v%d has a stale parent pointer" i.iid)
        (all_instrs b))
    fn.blocks;
  (* Phis: one entry per predecessor; phis lead their block. *)
  let dom = Dom.compute fn in
  List.iter
    (fun b ->
      if Cfg.is_reachable dom.Dom.cfg b then begin
        let preds = Cfg.preds dom.Dom.cfg b in
        let seen_non_phi = ref false in
        List.iter
          (fun i ->
            match i.op with
            | Phi { incoming; _ } ->
                if !seen_non_phi then
                  fail "phi %%v%d after non-phi instruction" i.iid;
                let have = List.map (fun (blk, _) -> blk.bid) incoming in
                List.iter
                  (fun p ->
                    if not (List.mem p.bid have) then
                      fail "phi %%v%d misses incoming from %s.%d" i.iid
                        p.b_name p.bid)
                  preds;
                if List.length incoming <> List.length preds then
                  fail "phi %%v%d has %d entries for %d predecessors" i.iid
                    (List.length incoming) (List.length preds)
            | _ -> seen_non_phi := true)
          b.instrs
      end)
    fn.blocks;
  (* Per-instruction typing. *)
  iter_instrs check_types fn;
  (* SSA: definitions dominate uses (phi uses checked at edge ends). *)
  iter_instrs
    (fun use ->
      match use.op with
      | Phi { incoming; _ } ->
          List.iter
            (fun (from, v) ->
              match v with
              | Vinstr def -> (
                  match (def.parent, ()) with
                  | Some db, () ->
                      if
                        Cfg.is_reachable dom.Dom.cfg db
                        && Cfg.is_reachable dom.Dom.cfg from
                        && not (Dom.dominates dom db from)
                      then
                        fail "phi %%v%d: %%v%d does not dominate edge from %s.%d"
                          use.iid def.iid from.b_name from.bid
                  | None, () -> fail "phi operand %%v%d is detached" def.iid)
              | _ -> ())
            incoming
      | _ ->
          List.iter
            (fun v ->
              match v with
              | Vinstr def ->
                  let reachable i =
                    match i.parent with
                    | Some b -> Cfg.is_reachable dom.Dom.cfg b
                    | None -> false
                  in
                  if reachable def && reachable use
                     && not (Dom.def_dominates_use dom ~def ~use) then
                    fail "use of %%v%d in %%v%d does not follow its definition"
                      def.iid use.iid
              | _ -> ())
            (operands use.op))
    fn
