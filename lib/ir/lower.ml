(** AST -> IR lowering with integrated type checking.

    Follows the classic Clang recipe: every source variable gets a private
    alloca slot and every read/write goes through memory; the mem2reg pass
    then promotes slots to SSA registers. [__local] arrays become
    local-space allocas — the objects Grover later eliminates. *)

open Grover_clc
module A = Ast
open Ssa

type binding =
  | Slot of { ptr : value; ast_ty : A.ty }  (** private scalar/vector slot *)
  | Arr of { ptr : value; ast_ty : A.ty }  (** array alloca; ast_ty is the full array type *)
  | Ptr_arg of { v : value; ast_ty : A.ty }  (** pointer parameter *)
  | Named_const of int  (** e.g. CLK_LOCAL_MEM_FENCE *)

type env = {
  fn : func;
  bld : Builder.t;
  mutable scopes : (string, binding) Hashtbl.t list;
  mutable loop_stack : (block * block) list;  (** (continue target, break target) *)
}

module Diag = Grover_support.Diag

let err loc fmt = Loc.errorf loc fmt

(* Internal invariant violations (not user errors): a structured Diag
   instead of a bare invalid_arg, so drivers print a located diagnostic
   and exit instead of dumping a backtrace. *)
let bug fmt = Diag.fatalf ~pass:"lower" fmt

(* -- Type mapping --------------------------------------------------------- *)

let ir_scalar = function
  | A.Bool -> I8
  | A.Char | A.UChar -> I8
  | A.Short | A.UShort -> I16
  | A.Int | A.UInt -> I32
  | A.Long | A.ULong -> I64
  | A.Float -> F32

let ir_space = function
  | A.Global -> Global
  | A.Local -> Local
  | A.Constant -> Constant
  | A.Private -> Private

let rec ir_ty (t : A.ty) : ty =
  match t with
  | A.Void -> Void
  | A.Scalar s -> ir_scalar s
  | A.Vector (s, n) -> Vec (ir_scalar s, n)
  | A.Ptr (sp, elem) -> Ptr (ir_space sp, ir_ty elem)
  | A.Array (elem, _) -> ir_ty (Sema.elem_type (A.Array (elem, 0)))

let ast_is_signed = function
  | A.Scalar s | A.Vector (s, _) -> Sema.is_signed s
  | _ -> false

(* -- Scope handling ------------------------------------------------------- *)

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env =
  match env.scopes with
  | _ :: rest -> env.scopes <- rest
  | [] -> bug "pop_scope on empty stack"

let bind env loc name b =
  match env.scopes with
  | scope :: _ ->
      if Hashtbl.mem scope name then err loc "redeclaration of %s" name
      else Hashtbl.add scope name b
  | [] -> bug "no scope open at %a binding %s" Loc.pp loc name

let lookup env name : binding option =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Hashtbl.find_opt scope name with
        | Some b -> Some b
        | None -> go rest)
  in
  go env.scopes

(* -- Allocas (always in the entry block, before any control flow) -------- *)

let add_alloca ?dims ?(name = "") ?loc env (aspace : space) (elem : ty)
    (count : int) : value =
  let dims = match dims with Some d -> d | None -> [ count ] in
  let i =
    fresh_instr ?loc (Alloca { aspace; elem; count; dims; aname = name })
  in
  let e = entry env.fn in
  i.parent <- Some e;
  (* Keep allocas grouped at the top of the entry block. *)
  let rec ins = function
    | ({ op = Alloca _; _ } as a) :: rest -> a :: ins rest
    | rest -> i :: rest
  in
  e.instrs <- ins e.instrs;
  Vinstr i

(* -- Conversions ---------------------------------------------------------- *)

(* Convert [v] (of AST type [src]) to AST type [dst]. *)
let rec convert env loc ~(src : A.ty) ~(dst : A.ty) (v : value) : value =
  if src = dst then v
  else
    let b = env.bld in
    match (src, dst) with
    | A.Scalar s1, A.Scalar s2 -> (
        let t1 = ir_scalar s1 and t2 = ir_scalar s2 in
        match (s1, s2) with
        | A.Float, A.Float -> v
        | A.Float, _ -> Builder.cast b Fp_to_si v t2
        | _, A.Float ->
            let kind = if Sema.is_signed s1 then Si_to_fp else Ui_to_fp in
            Builder.cast b kind v F32
        | _ ->
            let b1 = ty_bits t1 and b2 = ty_bits t2 in
            if b1 = b2 then v
            else if b2 < b1 then Builder.cast b Trunc v t2
            else if Sema.is_signed s1 then Builder.cast b Sext v t2
            else Builder.cast b Zext v t2)
    | A.Scalar s, A.Vector (s', n) ->
        let scalar = convert env loc ~src ~dst:(A.Scalar s') v in
        ignore s;
        Builder.vecbuild b (Vec (ir_scalar s', n)) (List.init n (fun _ -> scalar))
    | A.Vector (s1, n1), A.Vector (s2, n2) when n1 = n2 ->
        if s1 = s2 then v
        else
          (* Lane-wise conversion via extract/convert/insert chain. *)
          let lanes =
            List.init n1 (fun i ->
                let e = Builder.extract b v (Builder.i32 i) in
                convert env loc ~src:(A.Scalar s1) ~dst:(A.Scalar s2) e)
          in
          Builder.vecbuild b (Vec (ir_scalar s2, n1)) lanes
    | A.Array (elem, _), A.Ptr (_, elem') when elem = elem' -> v
    | _ ->
        err loc "cannot convert %s to %s" (A.ty_name src) (A.ty_name dst)

(* -- AST-level constant evaluation (for barrier flags, array dims) ------- *)

let rec const_eval env (e : A.expr) : int option =
  match e.A.desc with
  | A.Int_lit n -> Some n
  | A.Ident name -> (
      match lookup env name with
      | Some (Named_const n) -> Some n
      | _ -> None)
  | A.Binop (op, a, b) -> (
      match (const_eval env a, const_eval env b) with
      | Some x, Some y -> (
          match op with
          | A.Add -> Some (x + y)
          | A.Sub -> Some (x - y)
          | A.Mul -> Some (x * y)
          | A.Div -> if y = 0 then None else Some (x / y)
          | A.Rem -> if y = 0 then None else Some (x mod y)
          | A.Shl -> Some (x lsl y)
          | A.Shr -> Some (x asr y)
          | A.BAnd -> Some (x land y)
          | A.BOr -> Some (x lor y)
          | A.BXor -> Some (x lxor y)
          | _ -> None)
      | _ -> None)
  | A.Unop (A.Neg, a) -> Option.map (fun x -> -x) (const_eval env a)
  | A.Cast (_, a) -> const_eval env a
  | _ -> None

(* -- Places (lvalues) ----------------------------------------------------- *)

type place = {
  pl_base : value;  (** pointer the access goes through *)
  pl_index : value;  (** element index (I32), in units of [pl_ty] *)
  pl_ty : A.ty;  (** AST type stored at this place (may still be an array) *)
  pl_lane : int option;  (** vector component, if a .x-style access *)
}

let mul_index env a b =
  match (a, b) with
  | Cint (I32, x), Cint (I32, y) -> Builder.i32 (x * y)
  | _ -> Builder.binop env.bld Mul a b

let add_index env a b =
  match (a, b) with
  | Cint (I32, 0), v | v, Cint (I32, 0) -> v
  | Cint (I32, x), Cint (I32, y) -> Builder.i32 (x + y)
  | _ -> Builder.binop env.bld Add a b

let rec lower_place env (e : A.expr) : place =
  match e.A.desc with
  | A.Ident name -> (
      match lookup env name with
      | Some (Slot { ptr; ast_ty }) ->
          { pl_base = ptr; pl_index = Builder.i32 0; pl_ty = ast_ty; pl_lane = None }
      | Some (Arr { ptr; ast_ty }) ->
          { pl_base = ptr; pl_index = Builder.i32 0; pl_ty = ast_ty; pl_lane = None }
      | Some (Ptr_arg _) -> err e.A.loc "%s is a pointer, not an lvalue" name
      | Some (Named_const _) -> err e.A.loc "%s is a constant" name
      | None -> err e.A.loc "unknown variable %s" name)
  | A.Index (arr, idx) -> (
      let idx_ty, idx_v = lower_expr env idx in
      let idx_v = convert env idx.A.loc ~src:idx_ty ~dst:(A.Scalar A.Int) idx_v in
      match arr.A.desc with
      | A.Ident name when (match lookup env name with Some (Ptr_arg _) -> true | _ -> false) -> (
          match lookup env name with
          | Some (Ptr_arg { v; ast_ty = A.Ptr (_, elem) }) ->
              { pl_base = v; pl_index = idx_v; pl_ty = elem; pl_lane = None }
          | _ -> assert false)
      | _ -> (
          let p = lower_place env arr in
          match p.pl_ty with
          | A.Array (inner, _) ->
              let stride = Sema.array_length inner in
              let contrib = mul_index env idx_v (Builder.i32 stride) in
              { p with pl_index = add_index env p.pl_index contrib; pl_ty = inner }
          | A.Ptr (_, elem) ->
              (* A pointer stored in a slot: load it, then index. *)
              let ptr_v = Builder.load env.bld p.pl_base p.pl_index in
              { pl_base = ptr_v; pl_index = idx_v; pl_ty = elem; pl_lane = None }
          | t -> err e.A.loc "cannot index a value of type %s" (A.ty_name t)))
  | A.Member (base, field) -> (
      let p = lower_place env base in
      match (p.pl_ty, p.pl_lane) with
      | A.Vector (s, n), None ->
          let lane = Sema.component_index e.A.loc ~width:n field in
          { p with pl_ty = A.Scalar s; pl_lane = Some lane }
      | _ -> err e.A.loc "component access on a non-vector")
  | _ -> err e.A.loc "expression is not an lvalue"

and load_place env loc (p : place) : A.ty * value =
  (match p.pl_ty with
  | A.Array _ -> err loc "cannot read a whole array"
  | _ -> ());
  match p.pl_lane with
  | None -> (p.pl_ty, Builder.load env.bld p.pl_base p.pl_index)
  | Some lane ->
      let vec = Builder.load env.bld p.pl_base p.pl_index in
      (p.pl_ty, Builder.extract env.bld vec (Builder.i32 lane))

and store_place env loc (p : place) ~(src_ty : A.ty) (v : value) : value =
  match p.pl_lane with
  | None ->
      let v = convert env loc ~src:src_ty ~dst:p.pl_ty v in
      Builder.store env.bld p.pl_base p.pl_index v;
      v
  | Some lane ->
      let v = convert env loc ~src:src_ty ~dst:p.pl_ty v in
      let old = Builder.load env.bld p.pl_base p.pl_index in
      let updated = Builder.insert env.bld old (Builder.i32 lane) v in
      Builder.store env.bld p.pl_base p.pl_index updated;
      v

(* -- Expressions ----------------------------------------------------------- *)

and truth_value env loc (ty, v) : value =
  match type_of v with
  | I1 -> v
  | t when ty_is_integer t -> Builder.icmp env.bld Ine v (Cint (t, 0))
  | F32 -> Builder.fcmp env.bld Fone v (Cfloat 0.0)
  | _ -> err loc "cannot use %s as a condition" (A.ty_name ty)

and as_int_bool env (v : value) : value =
  (* Comparisons produce i1; C expressions need int 0/1. *)
  Builder.cast env.bld Zext v I32

and lower_binop env loc op (lt, lv) (rt, rv) : A.ty * value =
  match op with
  | A.LAnd | A.LOr ->
      let lb = truth_value env loc (lt, lv) and rb = truth_value env loc (rt, rv) in
      let ir_op = if op = A.LAnd then And else Or in
      let r = Builder.binop env.bld ir_op lb rb in
      (A.Scalar A.Int, as_int_bool env r)
  | _ -> (
      let common = Sema.usual_conversions loc lt rt in
      let result_ty = Sema.binop_result loc op common in
      let lv = convert env loc ~src:lt ~dst:common lv in
      let rv = convert env loc ~src:rt ~dst:common rv in
      let signed = ast_is_signed common in
      let is_f = Sema.is_float_based common in
      match op with
      | A.Add -> (result_ty, Builder.binop env.bld (if is_f then Fadd else Add) lv rv)
      | A.Sub -> (result_ty, Builder.binop env.bld (if is_f then Fsub else Sub) lv rv)
      | A.Mul -> (result_ty, Builder.binop env.bld (if is_f then Fmul else Mul) lv rv)
      | A.Div ->
          ( result_ty,
            Builder.binop env.bld
              (if is_f then Fdiv else if signed then Sdiv else Udiv)
              lv rv )
      | A.Rem ->
          ( result_ty,
            Builder.binop env.bld
              (if is_f then Frem else if signed then Srem else Urem)
              lv rv )
      | A.Shl -> (result_ty, Builder.binop env.bld Shl lv rv)
      | A.Shr ->
          (result_ty, Builder.binop env.bld (if signed then Ashr else Lshr) lv rv)
      | A.BAnd -> (result_ty, Builder.binop env.bld And lv rv)
      | A.BOr -> (result_ty, Builder.binop env.bld Or lv rv)
      | A.BXor -> (result_ty, Builder.binop env.bld Xor lv rv)
      | A.Lt | A.Gt | A.Le | A.Ge | A.Eq | A.Ne ->
          let r =
            if is_f then
              let c =
                match op with
                | A.Lt -> Folt | A.Gt -> Fogt | A.Le -> Fole | A.Ge -> Foge
                | A.Eq -> Foeq | _ -> Fone
              in
              Builder.fcmp env.bld c lv rv
            else
              let c =
                match (op, signed) with
                | A.Lt, true -> Islt | A.Lt, false -> Iult
                | A.Gt, true -> Isgt | A.Gt, false -> Iugt
                | A.Le, true -> Isle | A.Le, false -> Iule
                | A.Ge, true -> Isge | A.Ge, false -> Iuge
                | A.Eq, _ -> Ieq | _ -> Ine
              in
              Builder.icmp env.bld c lv rv
          in
          (A.Scalar A.Int, as_int_bool env r)
      | A.LAnd | A.LOr -> assert false)

and lower_call env loc name (args : A.expr list) : A.ty * value =
  if name = "barrier" then begin
    let flags =
      match args with
      | [ a ] -> (
          match const_eval env a with
          | Some f -> f
          | None -> 3 (* unknown flags: conservatively fence both *))
      | _ -> err loc "barrier expects one argument"
    in
    Builder.barrier env.bld ~blocal:(flags land 1 <> 0) ~bglobal:(flags land 2 <> 0);
    (A.Void, Cint (I32, 0))
  end
  else begin
    let lowered = List.map (fun a -> (a.A.loc, lower_expr env a)) args in
    let arg_tys = List.map (fun (_, (t, _)) -> t) lowered in
    let ret = Sema.builtin_result loc name arg_tys in
    match Builtins.category name with
    | Some Builtins.Work_item ->
        let v =
          match lowered with
          | [ (al, (t, v)) ] -> convert env al ~src:t ~dst:(A.Scalar A.Int) v
          | _ -> err loc "%s expects one argument" name
        in
        (A.Scalar A.Int, Builder.call env.bld name [ v ] I32)
    | Some Builtins.Work_dim -> (A.Scalar A.Int, Builder.call env.bld name [] I32)
    | Some _ ->
        (* Generic builtins: convert every argument to the result type,
           except [dot]'s which stay vectors while the result is scalar. *)
        let target = if name = "dot" then List.hd arg_tys else ret in
        let vs =
          List.map (fun (al, (t, v)) -> convert env al ~src:t ~dst:target v) lowered
        in
        (ret, Builder.call env.bld name vs (ir_ty ret))
    | None -> err loc "unknown function %s" name
  end

and lower_expr env (e : A.expr) : A.ty * value =
  Builder.set_loc env.bld e.A.loc;
  match e.A.desc with
  | A.Int_lit n -> (A.Scalar A.Int, Builder.i32 n)
  | A.Float_lit f -> (A.Scalar A.Float, Builder.f32 f)
  | A.Ident name -> (
      match lookup env name with
      | Some (Slot _ | Arr _) -> load_place env e.A.loc (lower_place env e)
      | Some (Ptr_arg { v; ast_ty }) -> (ast_ty, v)
      | Some (Named_const n) -> (A.Scalar A.Int, Builder.i32 n)
      | None -> err e.A.loc "unknown variable %s" name)
  | A.Binop (op, a, b) ->
      let la = lower_expr env a and lb = lower_expr env b in
      lower_binop env e.A.loc op la lb
  | A.Unop (A.Neg, a) -> (
      let t, v = lower_expr env a in
      match t with
      | A.Scalar A.Float | A.Vector (A.Float, _) ->
          (t, Builder.binop env.bld Fsub (zero_of env t) v)
      | A.Scalar _ | A.Vector _ -> (t, Builder.binop env.bld Sub (zero_of env t) v)
      | _ -> err e.A.loc "cannot negate %s" (A.ty_name t))
  | A.Unop (A.Not, a) ->
      let la = lower_expr env a in
      let b = truth_value env e.A.loc la in
      let inv = Builder.binop env.bld Xor b (Cint (I1, 1)) in
      (A.Scalar A.Int, as_int_bool env inv)
  | A.Unop (A.BNot, a) -> (
      let t, v = lower_expr env a in
      match type_of v with
      | (I8 | I16 | I32 | I64) as it ->
          (t, Builder.binop env.bld Xor v (Cint (it, -1)))
      | _ -> err e.A.loc "operator ~ needs an integer")
  | A.Assign (lhs, rhs) ->
      let rt, rv = lower_expr env rhs in
      let p = lower_place env lhs in
      let v = store_place env e.A.loc p ~src_ty:rt rv in
      (p.pl_ty, v)
  | A.Index _ | A.Member _ -> (
      match e.A.desc with
      | A.Member (base, field) when not (is_lvalue env base) ->
          (* Component of a temporary vector value. *)
          let t, v = lower_expr env base in
          (match t with
          | A.Vector (s, n) ->
              let lane = Sema.component_index e.A.loc ~width:n field in
              (A.Scalar s, Builder.extract env.bld v (Builder.i32 lane))
          | _ -> err e.A.loc "component access on non-vector")
      | _ -> load_place env e.A.loc (lower_place env e))
  | A.Call (name, args) -> lower_call env e.A.loc name args
  | A.Cast (t, a) ->
      let src, v = lower_expr env a in
      (t, convert env e.A.loc ~src ~dst:t v)
  | A.Vec_lit (t, elems) -> (
      match t with
      | A.Vector (s, n) ->
          if List.length elems <> n then
            err e.A.loc "vector literal arity mismatch for %s" (A.ty_name t);
          let vs =
            List.map
              (fun el ->
                let et, ev = lower_expr env el in
                convert env el.A.loc ~src:et ~dst:(A.Scalar s) ev)
              elems
          in
          (t, Builder.vecbuild env.bld (Vec (ir_scalar s, n)) vs)
      | _ -> err e.A.loc "vector literal of non-vector type")
  | A.Cond (c, a, b) ->
      let lc = lower_expr env c in
      let cb = truth_value env e.A.loc lc in
      let ta, va = lower_expr env a in
      let tb, vb = lower_expr env b in
      let common = Sema.usual_conversions e.A.loc ta tb in
      let va = convert env a.A.loc ~src:ta ~dst:common va in
      let vb = convert env b.A.loc ~src:tb ~dst:common vb in
      (common, Builder.select env.bld cb va vb)
  | A.Pre_incr (up, a) ->
      let p = lower_place env a in
      let t, old = load_place env e.A.loc p in
      let newer = incr_value env e.A.loc t old up in
      ignore (store_place env e.A.loc p ~src_ty:t newer);
      (t, newer)
  | A.Post_incr (up, a) ->
      let p = lower_place env a in
      let t, old = load_place env e.A.loc p in
      let newer = incr_value env e.A.loc t old up in
      ignore (store_place env e.A.loc p ~src_ty:t newer);
      (t, old)

and is_lvalue env (e : A.expr) : bool =
  match e.A.desc with
  | A.Ident name -> (
      match lookup env name with Some (Slot _ | Arr _) -> true | _ -> false)
  | A.Index _ -> true
  | A.Member (b, _) -> is_lvalue env b
  | _ -> false

and zero_of env (t : A.ty) : value =
  match t with
  | A.Scalar A.Float -> Builder.f32 0.0
  | A.Scalar s -> Cint (ir_scalar s, 0)
  | A.Vector (s, n) ->
      let z = if s = A.Float then Builder.f32 0.0 else Cint (ir_scalar s, 0) in
      Builder.vecbuild env.bld (Vec (ir_scalar s, n)) (List.init n (fun _ -> z))
  | _ -> bug "zero_of: no zero for type %s" (A.ty_name t)

and incr_value env loc t v up =
  match t with
  | A.Scalar A.Float ->
      Builder.binop env.bld (if up then Fadd else Fsub) v (Builder.f32 1.0)
  | A.Scalar s ->
      Builder.binop env.bld (if up then Add else Sub) v (Cint (ir_scalar s, 1))
  | _ -> err loc "++/-- on non-scalar"

(* -- Statements ------------------------------------------------------------ *)

let rec lower_stmt env (s : A.stmt) : unit =
  Builder.set_loc env.bld s.A.s_loc;
  if Builder.is_terminated env.bld then begin
    (* Code after return/break: emit into a fresh dead block, pruned later. *)
    let b = Builder.new_block env.bld "dead" in
    Builder.set_block env.bld b
  end;
  match s.A.s_desc with
  | A.Sdecl d -> lower_decl env d
  | A.Sexpr e -> ignore (lower_expr env e)
  | A.Sblock body ->
      push_scope env;
      List.iter (lower_stmt env) body;
      pop_scope env
  | A.Sif (c, then_s, else_s) ->
      let lc = lower_expr env c in
      let cb = truth_value env s.A.s_loc lc in
      let then_b = Builder.new_block env.bld "then" in
      let join_b = Builder.new_block env.bld "endif" in
      let else_b =
        match else_s with
        | Some _ -> Builder.new_block env.bld "else"
        | None -> join_b
      in
      Builder.cond_br env.bld cb then_b else_b;
      Builder.set_block env.bld then_b;
      lower_stmt env then_s;
      if not (Builder.is_terminated env.bld) then Builder.br env.bld join_b;
      (match else_s with
      | Some es ->
          Builder.set_block env.bld else_b;
          lower_stmt env es;
          if not (Builder.is_terminated env.bld) then Builder.br env.bld join_b
      | None -> ());
      Builder.set_block env.bld join_b
  | A.Sfor (init, cond, step, body) ->
      push_scope env;
      (match init with Some i -> lower_stmt env i | None -> ());
      let header = Builder.new_block env.bld "for.cond" in
      let body_b = Builder.new_block env.bld "for.body" in
      let step_b = Builder.new_block env.bld "for.step" in
      let exit_b = Builder.new_block env.bld "for.end" in
      Builder.br env.bld header;
      Builder.set_block env.bld header;
      (match cond with
      | Some c ->
          let lc = lower_expr env c in
          let cb = truth_value env s.A.s_loc lc in
          Builder.cond_br env.bld cb body_b exit_b
      | None -> Builder.br env.bld body_b);
      env.loop_stack <- (step_b, exit_b) :: env.loop_stack;
      Builder.set_block env.bld body_b;
      lower_stmt env body;
      if not (Builder.is_terminated env.bld) then Builder.br env.bld step_b;
      Builder.set_block env.bld step_b;
      (match step with Some e -> ignore (lower_expr env e) | None -> ());
      Builder.br env.bld header;
      env.loop_stack <- List.tl env.loop_stack;
      Builder.set_block env.bld exit_b;
      pop_scope env
  | A.Swhile (cond, body) ->
      let header = Builder.new_block env.bld "while.cond" in
      let body_b = Builder.new_block env.bld "while.body" in
      let exit_b = Builder.new_block env.bld "while.end" in
      Builder.br env.bld header;
      Builder.set_block env.bld header;
      let lc = lower_expr env cond in
      let cb = truth_value env s.A.s_loc lc in
      Builder.cond_br env.bld cb body_b exit_b;
      env.loop_stack <- (header, exit_b) :: env.loop_stack;
      Builder.set_block env.bld body_b;
      lower_stmt env body;
      if not (Builder.is_terminated env.bld) then Builder.br env.bld header;
      env.loop_stack <- List.tl env.loop_stack;
      Builder.set_block env.bld exit_b
  | A.Sdo (body, cond) ->
      let body_b = Builder.new_block env.bld "do.body" in
      let cond_b = Builder.new_block env.bld "do.cond" in
      let exit_b = Builder.new_block env.bld "do.end" in
      Builder.br env.bld body_b;
      env.loop_stack <- (cond_b, exit_b) :: env.loop_stack;
      Builder.set_block env.bld body_b;
      lower_stmt env body;
      if not (Builder.is_terminated env.bld) then Builder.br env.bld cond_b;
      Builder.set_block env.bld cond_b;
      let lc = lower_expr env cond in
      let cb = truth_value env s.A.s_loc lc in
      Builder.cond_br env.bld cb body_b exit_b;
      env.loop_stack <- List.tl env.loop_stack;
      Builder.set_block env.bld exit_b
  | A.Sreturn None -> Builder.ret env.bld
  | A.Sreturn (Some _) -> err s.A.s_loc "kernels cannot return a value"
  | A.Sbreak -> (
      match env.loop_stack with
      | (_, brk) :: _ -> Builder.br env.bld brk
      | [] -> err s.A.s_loc "break outside a loop")
  | A.Scontinue -> (
      match env.loop_stack with
      | (cont, _) :: _ -> Builder.br env.bld cont
      | [] -> err s.A.s_loc "continue outside a loop")

and lower_decl env (d : A.decl) : unit =
  let loc = d.A.d_loc in
  match d.A.d_ty with
  | A.Array (_, _) as arr_ty ->
      let elem = Sema.elem_type arr_ty in
      let count = Sema.array_length arr_ty in
      let rec shape = function
        | A.Array (inner, n) -> n :: shape inner
        | _ -> []
      in
      let space = ir_space d.A.d_space in
      if d.A.d_init <> None then
        err loc "array initialisers are not supported in the subset";
      (* A private array carries its declaration's position, so the lane
         verdict of the region it makes run one work-item at a time can
         say where it is. A [__local] array stays unpositioned: the race
         checker's remarks name it by the alloca's position. *)
      let loc' = if space = Private then Some loc else None in
      let ptr =
        add_alloca ~dims:(shape arr_ty) ~name:d.A.d_name ?loc:loc' env space
          (ir_ty elem) count
      in
      bind env loc d.A.d_name (Arr { ptr; ast_ty = arr_ty })
  | A.Scalar _ | A.Vector _ | A.Ptr _ ->
      if d.A.d_space = A.Local then
        err loc "__local scalars are not supported; use an array";
      let ptr = add_alloca env Private (ir_ty d.A.d_ty) 1 in
      bind env loc d.A.d_name (Slot { ptr; ast_ty = d.A.d_ty });
      (match d.A.d_init with
      | Some e ->
          let t, v = lower_expr env e in
          let v = convert env loc ~src:t ~dst:d.A.d_ty v in
          Builder.store env.bld ptr (Builder.i32 0) v
      | None -> ())
  | A.Void -> err loc "cannot declare a void variable"

(* -- Kernels ---------------------------------------------------------------- *)

let lower_kernel (k : A.kernel) : func =
  let args =
    List.mapi
      (fun i (p : A.param) -> { a_index = i; a_name = p.A.p_name; a_ty = ir_ty p.A.p_ty })
      k.A.k_params
  in
  let fn, bld = Builder.create_function ~name:k.A.k_name ~args in
  let env = { fn; bld; scopes = []; loop_stack = [] } in
  push_scope env;
  List.iter
    (fun (name, v) -> bind env k.A.k_loc name (Named_const v))
    Builtins.predefined_constants;
  push_scope env;
  List.iter2
    (fun (p : A.param) (a : arg) ->
      match p.A.p_ty with
      | A.Ptr _ -> bind env p.A.p_loc p.A.p_name (Ptr_arg { v = Arg a; ast_ty = p.A.p_ty })
      | A.Scalar _ | A.Vector _ ->
          (* Parameters are mutable in C: give them a slot. *)
          let slot = add_alloca env Private (ir_ty p.A.p_ty) 1 in
          Builder.store env.bld slot (Builder.i32 0) (Arg a);
          bind env p.A.p_loc p.A.p_name (Slot { ptr = slot; ast_ty = p.A.p_ty })
      | t -> err p.A.p_loc "unsupported parameter type %s" (A.ty_name t))
    k.A.k_params fn.f_args;
  push_scope env;
  List.iter (lower_stmt env) k.A.k_body;
  if not (Builder.is_terminated env.bld) then Builder.ret env.bld;
  (* Terminate any dangling dead blocks so the verifier is happy. *)
  List.iter
    (fun b -> if b.term = None then set_term b (fresh_instr Ret))
    fn.blocks;
  Cfg.prune_unreachable fn;
  Verify.run fn;
  fn

let lower_program (p : A.program) : func list = List.map lower_kernel p.A.kernels

(** Front door: OpenCL C source -> IR functions. *)
let compile ?defines (src : string) : func list =
  lower_program (Parser.parse ?defines src)
