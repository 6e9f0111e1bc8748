(** Grover — the compiler pass that disables local memory usage in OpenCL
    kernels (Fang, Sips, Jääskeläinen, Varbanescu; ICPP 2014).

    The input function must be in normal form
    (see {!Grover_passes.Pipeline.normalize}): index chains bottoming out at
    calls, constants, arguments and phi nodes. The pass mutates the function
    in place; candidates that do not fit the software-cache pattern are left
    intact and reported with a reason. *)

type outcome = {
  transformed : string list;  (** local buffers whose usage was disabled *)
  rejected : (string * string) list;  (** (buffer, reason) for the rest *)
  reports : Report.entry list;  (** one Table-III-style entry per buffer *)
  barriers_removed : int;
}

val run :
  ?only:string list ->
  ?ctx:Grover_passes.Pass.ctx ->
  Grover_ir.Ssa.func ->
  outcome
(** [run ?only ?ctx fn] disables local memory usage in [fn].

    @param only restrict the rewrite to local buffers with these source
    names (e.g. [["As"]] reproduces the paper's NVD-MM-A case). Unselected
    buffers are preserved untouched and do not appear in [rejected].
    @param ctx pass-manager context: internal cleanup pipelines are
    instrumented through it and per-candidate outcomes (the paper's
    Table-III "why rejected" reasons) are emitted as [remark]
    diagnostics. *)

val pass : Grover_passes.Pass.t
(** Grover registered as the pass ["grover"], for custom pipelines. *)
