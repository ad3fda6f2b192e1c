open Zarith_lite
open Symbolic

type branch_record = {
  br_branch : bool;
  br_done : bool;
}

type run_outcome =
  | Run_fault of Machine.fault * Machine.site
  | Run_prediction_failure
  | Run_halted

let outcome_to_string = function
  | Run_fault _ -> "fault"
  | Run_prediction_failure -> "prediction_failure"
  | Run_halted -> "halted"

type run_data = {
  outcome : run_outcome;
  stack : branch_record array;
  path_constraint : Constr.t option array;
  cond_sites : (string * int) array;
  conditionals : int;
  steps : int;
  inputs_read : int;
  all_linear : bool;
  all_locs_definite : bool;
  branch_sites : (string * int * bool) list;
}

type exec_options = {
  machine_config : Machine.config;
  library : (string * Machine.library_impl) list;
  symbolic_pointers : bool;
  symbolic : bool;
  compile : bool;
}

let default_exec_options =
  { machine_config = Machine.default_config;
    library = [];
    symbolic_pointers = false;
    symbolic = true;
    compile = true }

(* Cap on recursive data-structure depth: a pointer this many levels
   below an input is NULL without drawing a coin. *)
let max_ptr_depth = 16

exception Prediction_failure_exn

(* One executed conditional: its site, its predicate in the path
   constraint ([None] outside the linear theory) and the direction the
   run took. *)
type cond = {
  site : string * int;
  constr : Constr.t option;
  taken : bool;
}

(* Everything a run accumulates besides the machine. A snapshot keeps a
   copy and a resumed run continues from a copy of that, so a field
   added here is carried across a resume without further code. *)
type state = {
  mutable k : int; (* conditionals executed *)
  mutable next_input : int; (* id of the next input read *)
  mutable conds : cond list; (* one per conditional, latest first *)
  mutable all_linear : bool;
  mutable all_locs_definite : bool;
  sym : Symmem.t;
  coverage : (string * int * bool, unit) Hashtbl.t;
}

let copy_state st = { st with sym = Symmem.copy st.sym; coverage = Hashtbl.copy st.coverage }

(* A run's state at an external call that returns a value, taken
   before the call's result is drawn: what a later run needs to resume
   from there instead of from [main]. *)
type snap = {
  sn_state : state;
  sn_machine : Machine.snapshot;
  sn_dst : int;
  sn_ty : Minic.Ctype.t;
}

(* The latest run's snapshots, deepest first, with the program and
   options it ran under and what it read before its deepest snapshot:
   input values and kinds by id, and branch directions by conditional.
   A snapshot is restored only when the next run agrees with these, so
   nothing ever needs invalidating. *)
type store = {
  mutable chain : snap list;
  mutable filled_by : (Ram.Instr.program * exec_options) option;
  mutable inputs : (int * Inputs.kind) array;
  mutable dirs : bool array;
  mutable resumed : int; (* runs that restored a snapshot *)
  mutable copied : int; (* cost of every snapshot taken, see [snap_cost] *)
}

let create_store () =
  { chain = []; filled_by = None; inputs = [||]; dirs = [||]; resumed = 0; copied = 0 }

let resumed store = store.resumed
let copied store = store.copied

(* A snapshot copies the machine's footprint, the symbolic memory and
   the coverage table, and a restore copies them again, so its cost
   grows with the memory the program has touched. One is taken at an
   external call only once the steps since the previous one (or since
   the restore point) reach [snap_min_steps] and the snapshot's cost
   over [snap_cells_per_step]. A run's snapshots then copy at most
   [snap_cells_per_step] cells per step it executes, and the chain the
   store keeps holds at most that many per step of the run's prefix,
   however large the program's memory. A cell copies in about 1 ns
   (6-7 ns once a copy outgrows the minor heap), against about 170 ns
   for a step with its shadow update (DESIGN.md, "Run resume", has the
   measurements). *)
let snap_min_steps = 16
let snap_cells_per_step = 16

type ctx = {
  opts : exec_options;
  rng : Dart_util.Prng.t;
  im : Inputs.t;
  prev_stack : branch_record array;
  structs : Minic.Ctype.struct_env;
  st : state;
  mutable snaps : snap list; (* this run's chain, deepest first *)
  mutable last_snap : int; (* machine steps at the last snapshot or restore point *)
}

(* ---- evaluate_symbolic (Figure 1) ----------------------------------------- *)

(* The symbolic counterpart of the machine's concrete evaluation.
   Returns a linear expression over input variables; whenever the
   expression leaves the linear theory (products of two symbolic
   values, bit operations, symbolic addresses...), it falls back on the
   concrete value and clears the corresponding completeness flag, as in
   Figure 1. *)
let rec eval_sym st m ~base (e : Ram.Instr.rexpr) : Linexpr.t =
  let concrete () = Linexpr.of_int (Machine.eval_concrete m ~base e) in
  match e with
  | Ram.Instr.Const n -> Linexpr.of_int n
  | Ram.Instr.Addr_global _ | Ram.Instr.Addr_local _ | Ram.Instr.Addr_string _ ->
    concrete ()
  | Ram.Instr.Load a ->
    let sa = eval_sym st m ~base a in
    (match Linexpr.is_const sa with
     | Some _ ->
       let addr = Machine.eval_concrete m ~base a in
       (match Symmem.lookup st.sym ~addr with
        | Some se -> se
        | None -> concrete ())
     | None ->
       (* Dereference through an input-dependent address: the paper's
          all_locs_definite case. *)
       st.all_locs_definite <- false;
       concrete ())
  | Ram.Instr.Unop (op, e1) ->
    let s1 = eval_sym st m ~base e1 in
    (match op with
     | Minic.Ast.Neg -> Linexpr.neg s1
     | Minic.Ast.Bitnot ->
       (* Two's complement: ~x = -x - 1, still linear. *)
       Linexpr.add_const Zint.minus_one (Linexpr.neg s1)
     | Minic.Ast.Lognot ->
       (match Linexpr.is_const s1 with
        | Some _ -> concrete ()
        | None ->
          st.all_linear <- false;
          concrete ()))
  | Ram.Instr.Binop (op, a, b) ->
    let sa = eval_sym st m ~base a in
    let sb = eval_sym st m ~base b in
    let ca = Linexpr.is_const sa and cb = Linexpr.is_const sb in
    let nonlinear () =
      match (ca, cb) with
      | Some _, Some _ -> concrete ()
      | _ ->
        st.all_linear <- false;
        concrete ()
    in
    (match op with
     | Minic.Ast.Add -> Linexpr.add sa sb
     | Minic.Ast.Sub -> Linexpr.sub sa sb
     | Minic.Ast.Mul ->
       (match (ca, cb) with
        | Some x, _ -> Linexpr.scale x sb
        | _, Some y -> Linexpr.scale y sa
        | None, None ->
          st.all_linear <- false;
          concrete ())
     | Minic.Ast.Shl ->
       (* x << c with constant c is a scale by 2^c. *)
       (match cb with
        | Some c when Zint.sign c >= 0 && Zint.compare c (Zint.of_int 31) <= 0 ->
          Linexpr.scale (Zint.pow Zint.two (Zint.to_int c)) sa
        | _ -> nonlinear ())
     | Minic.Ast.Div | Minic.Ast.Mod | Minic.Ast.Band | Minic.Ast.Bor | Minic.Ast.Bxor
     | Minic.Ast.Shr ->
       nonlinear ()
     | Minic.Ast.Eq | Minic.Ast.Ne | Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt
     | Minic.Ast.Ge ->
       (* A comparison used as an arithmetic value (not as a branch
          condition) is outside the linear fragment. *)
       nonlinear ())

let is_comparison (op : Minic.Ast.binop) =
  match op with
  | Minic.Ast.Eq | Minic.Ast.Ne | Minic.Ast.Lt | Minic.Ast.Le | Minic.Ast.Gt | Minic.Ast.Ge
    ->
    true
  | Minic.Ast.Add | Minic.Ast.Sub | Minic.Ast.Mul | Minic.Ast.Div | Minic.Ast.Mod
  | Minic.Ast.Band | Minic.Ast.Bor | Minic.Ast.Bxor | Minic.Ast.Shl | Minic.Ast.Shr ->
    false

(* The predicate recorded in the path constraint for a conditional.
   [None] when the condition carries no (linear) symbolic content — it
   then cannot be flipped, exactly the paper's foobar line-2 case. *)
let rec cond_constraint st m ~base (e : Ram.Instr.rexpr) ~taken : Constr.t option =
  match e with
  | Ram.Instr.Unop (Minic.Ast.Lognot, e1) -> cond_constraint st m ~base e1 ~taken:(not taken)
  | Ram.Instr.Binop (op, a, b) when is_comparison op ->
    let sa = eval_sym st m ~base a in
    let sb = eval_sym st m ~base b in
    if Linexpr.is_const sa <> None && Linexpr.is_const sb <> None then None
    else begin
      match Constr.of_comparison op sa sb with
      | Some c -> Some (if taken then c else Constr.negate c)
      | None -> None
    end
  | _ ->
    let sv = eval_sym st m ~base e in
    (match Linexpr.is_const sv with
     | Some _ -> None
     | None -> Some (Constr.truth sv taken))

(* ---- compare_and_update_stack (Figure 4) ----------------------------------- *)

let record_branch ctx ~site ~taken ~constr =
  let st = ctx.st in
  let k = st.k in
  st.conds <- { site; constr; taken } :: st.conds;
  st.k <- k + 1;
  if k < Array.length ctx.prev_stack && ctx.prev_stack.(k).br_branch <> taken then
    raise Prediction_failure_exn

(* ---- random initialization (Figure 8) -------------------------------------- *)

let fresh_scalar ctx m ~addr ~kind =
  let id = ctx.st.next_input in
  ctx.st.next_input <- id + 1;
  let v = Inputs.get ctx.im ~id ~kind ~rng:ctx.rng in
  Machine.write_word m addr v;
  if ctx.opts.symbolic then Symmem.bind ctx.st.sym ~addr (Linexpr.var id);
  v

let rec rand_init ctx m ~addr ~ty ~depth =
  match (ty : Minic.Ctype.t) with
  | Minic.Ctype.Tint -> ignore (fresh_scalar ctx m ~addr ~kind:Inputs.Kint)
  | Minic.Ctype.Tchar -> ignore (fresh_scalar ctx m ~addr ~kind:Inputs.Kchar)
  | Minic.Ctype.Tvoid -> ()
  | Minic.Ctype.Tptr pointee -> rand_init_pointer ctx m ~addr ~pointee ~depth
  | Minic.Ctype.Tstruct sname ->
    let def = Minic.Ctype.find_struct ctx.structs sname in
    List.iter
      (fun (fname, fty) ->
        let off, _ = Minic.Ctype.field_offset ctx.structs sname fname in
        rand_init ctx m ~addr:(addr + off) ~ty:fty ~depth)
      def.Minic.Ctype.sfields
  | Minic.Ctype.Tarray (elem, n) ->
    let sz = Minic.Ctype.sizeof ctx.structs elem in
    for i = 0 to n - 1 do
      rand_init ctx m ~addr:(addr + (i * sz)) ~ty:elem ~depth
    done

and rand_init_pointer ctx m ~addr ~pointee ~depth =
  if depth >= max_ptr_depth then begin
    (* Depth cap: force NULL without consuming an input, keeping input
       numbering deterministic along a path. *)
    Machine.write_word m addr 0;
    if ctx.opts.symbolic then Symmem.erase ctx.st.sym ~addr
  end
  else begin
    let id = ctx.st.next_input in
    ctx.st.next_input <- id + 1;
    let coin = Inputs.get ctx.im ~id ~kind:Inputs.Kcoin ~rng:ctx.rng in
    let non_null = coin <> 0 in
    if ctx.opts.symbolic then begin
      if ctx.opts.symbolic_pointers then begin
        (* Extension: the coin toss becomes a directable pseudo-branch
           with constraint coin <> 0 (or = 0). *)
        let c = Constr.truth (Linexpr.var id) non_null in
        (* No machine site backs the coin: attribute it to a synthetic
           one keyed by the input id so traces stay unambiguous. *)
        record_branch ctx ~site:(Driver_gen.coin_site, id) ~taken:non_null ~constr:(Some c)
      end
      else
        (* Paper semantics: the pointer shape is pure randomization the
           directed search cannot flip, so exhausting the value-directed
           search does not cover all behaviours — completeness is lost
           and the outer loop must keep restarting with fresh shapes
           ("randomization takes over", §6). *)
        ctx.st.all_locs_definite <- false
    end;
    if non_null then begin
      let size =
        match pointee with
        | Minic.Ctype.Tvoid -> 1
        | _ -> Minic.Ctype.sizeof ctx.structs pointee
      in
      let target = Machine.alloc_heap m size in
      (match pointee with
       | Minic.Ctype.Tvoid ->
         (* void*: a single opaque int cell. *)
         rand_init ctx m ~addr:target ~ty:Minic.Ctype.Tint ~depth:(depth + 1)
       | _ -> rand_init ctx m ~addr:target ~ty:pointee ~depth:(depth + 1));
      Machine.write_word m addr target
    end
    else Machine.write_word m addr 0;
    if ctx.opts.symbolic then Symmem.erase ctx.st.sym ~addr
  end

(* ---- run resume ------------------------------------------------------------- *)

let snap_cost st m =
  Machine.footprint m + Symmem.symbolic_count st.sym + Hashtbl.length st.coverage

(* The store's chain from the deepest snapshot that a full run on [im]
   and [prev_stack] would pass through in the same state, counted as a
   resume. The machine
   is deterministic given the inputs read, so that holds when every
   input read before the snapshot has its recorded value and kind (a
   full run then draws nothing from the PRNG before it), when
   [prev_stack] predicts every direction taken before it (no prediction
   failure), and when it lies before the flipped branch (no branch
   beyond the prefix yet, flip not confirmed). Only a run on the
   program and options record the chain was taken under qualifies: a
   restore rebuilds the snapshot's own machine. *)
let pick store ~prog ~opts ~im ~prev_stack =
  match (store.chain, store.filled_by) with
  | [], _ | _, None -> None
  | _, Some (p, o) when p != prog || o != opts -> None
  | chain, Some _ ->
    let plen = Array.length prev_stack in
    let agree n same =
      let rec go i = if i < n && same i then go (i + 1) else i in
      go 0
    in
    let inputs =
      agree (Array.length store.inputs) (fun i ->
          let v, kind = store.inputs.(i) in
          (* Monomorphic: runs per recorded input of every resumed run. *)
          match Inputs.value_of im i with
          | Some v' when Int.equal v' v -> (
            match Inputs.kind_of im i with Some kind' -> kind' == kind | None -> false)
          | _ -> false)
    in
    let dirs =
      agree (min plen (Array.length store.dirs)) (fun i ->
          prev_stack.(i).br_branch = store.dirs.(i))
    in
    let rec find = function
      | [] -> None
      | s :: rest as from ->
        let st = s.sn_state in
        if st.next_input <= inputs && st.k <= dirs && st.k < plen then begin
          store.resumed <- store.resumed + 1;
          Some (s, from)
        end
        else find rest
    in
    find chain

(* Keep this run's chain and what it read before the deepest snapshot.
   Every id below its [next_input] was read from (or drawn into) IM, and
   every direction below its [k] was taken: a prediction failure comes
   after all of the run's snapshots. *)
let save_chain store ctx ~prog ~stack =
  store.chain <- ctx.snaps;
  match ctx.snaps with
  | [] ->
    store.inputs <- [||];
    store.dirs <- [||]
  | deepest :: _ ->
    store.filled_by <- Some (prog, ctx.opts);
    store.inputs <-
      Array.init deepest.sn_state.next_input (fun i ->
          (Option.get (Inputs.value_of ctx.im i), Option.get (Inputs.kind_of ctx.im i)));
    store.dirs <- Array.init deepest.sn_state.k (fun i -> stack.(i).br_branch)

(* ---- the instrumented run (Figure 3) ---------------------------------------- *)

let run_once ?store ~opts ~rng ~im ~prev_stack ~entry (prog : Ram.Instr.program) : run_data =
  let from =
    match store with
    | Some store when opts.symbolic -> pick store ~prog ~opts ~im ~prev_stack
    | _ -> None
  in
  let m, st, snaps =
    match from with
    | Some (s, chain) -> (Machine.restore s.sn_machine, copy_state s.sn_state, chain)
    | None ->
      ( Machine.load ~config:opts.machine_config ~library:opts.library ~compile:opts.compile prog,
        { k = 0;
          next_input = 0;
          conds = [];
          (* Without the shadow no constraint is tracked, so the run
             cannot vouch for completeness. *)
          all_linear = opts.symbolic;
          all_locs_definite = true;
          sym = Symmem.create ();
          coverage = Hashtbl.create 64 },
        [] )
  in
  let ctx =
    { opts;
      rng;
      im;
      prev_stack;
      structs = prog.Ram.Instr.structs;
      st;
      snaps;
      last_snap = Machine.steps m }
  in
  let listener =
    { Machine.on_store =
        (fun m ~dst ~src ~base ->
          if opts.symbolic then Symmem.bind st.sym ~addr:dst (eval_sym st m ~base src));
      on_branch =
        (fun m ~cond ~base ~taken ~site ->
          Hashtbl.replace st.coverage (site.Machine.site_fn, site.Machine.site_pc, taken) ();
          let constr = if opts.symbolic then cond_constraint st m ~base cond ~taken else None in
          record_branch ctx ~site:(site.Machine.site_fn, site.Machine.site_pc) ~taken ~constr);
      on_external =
        (fun m signature ~dst ->
          match dst with
          | None -> ()
          | Some addr ->
            let ty = signature.Minic.Tast.sig_ret in
            let gap = Machine.steps m - ctx.last_snap in
            (match store with
             | Some store when opts.symbolic && gap >= snap_min_steps ->
               let cost = snap_cost st m in
               if gap * snap_cells_per_step >= cost then begin
                 store.copied <- store.copied + cost;
                 ctx.last_snap <- Machine.steps m;
                 ctx.snaps <-
                   { sn_state = copy_state st;
                     sn_machine = Machine.snapshot m;
                     sn_dst = addr;
                     sn_ty = ty }
                   :: ctx.snaps
               end
             | _ -> ());
            rand_init ctx m ~addr ~ty ~depth:0);
      on_library =
        (fun m ~callee:_ ~args ~base ->
          if opts.symbolic then begin
            (* A black box consuming symbolic data: its behaviour is
               unknown to the theory, so completeness is lost. *)
            let symbolic_arg =
              List.exists (fun a -> Linexpr.is_const (eval_sym st m ~base a) = None) args
            in
            if symbolic_arg then st.all_linear <- false
          end);
      on_entry =
        (fun m ~entry:_ ~base:_ ->
          (* random_init of all external variables (paper §3.2). *)
          List.iter
            (fun (g : Minic.Tast.tglobal) ->
              if g.gl_extern then
                rand_init ctx m ~addr:(Machine.global_addr m g.gl_name) ~ty:g.gl_ty ~depth:0)
            prog.Ram.Instr.globals) }
  in
  let outcome =
    match
      match from with
      | Some (s, _) ->
        Machine.resume ~listener m ~before:(fun m ->
            rand_init ctx m ~addr:s.sn_dst ~ty:s.sn_ty ~depth:0)
      | None -> Machine.run ~listener m ~entry
    with
    | Machine.Halted -> Run_halted
    | Machine.Faulted (f, site) -> Run_fault (f, site)
    | exception Prediction_failure_exn -> Run_prediction_failure
  in
  (* The stack, path constraint and sites, one entry per conditional in
     execution order. Each entry holds the direction taken, also a
     mispredicted one; entries the prefix predicted keep their [br_done],
     and the flipped entry is done once the run got past it. *)
  let n = st.k and plen = Array.length prev_stack in
  let flip_confirmed =
    match outcome with
    | Run_prediction_failure -> false
    | Run_halted | Run_fault _ -> n >= plen
  in
  let stack = Array.make n { br_branch = false; br_done = false } in
  let path_constraint = Array.make n None in
  let cond_sites = Array.make n ("", 0) in
  List.iteri
    (fun j c ->
      let i = n - 1 - j in
      stack.(i) <-
        (if i >= plen then { br_branch = c.taken; br_done = false }
         else
           let r = prev_stack.(i) in
           if i = plen - 1 && flip_confirmed then { r with br_done = true }
           else if r.br_branch = c.taken then r
           else { r with br_branch = c.taken });
      path_constraint.(i) <- c.constr;
      cond_sites.(i) <- c.site)
    st.conds;
  Option.iter (fun store -> save_chain store ctx ~prog ~stack) store;
  { outcome;
    stack;
    path_constraint;
    cond_sites;
    conditionals = n;
    steps = Machine.steps m;
    inputs_read = st.next_input;
    all_linear = st.all_linear;
    all_locs_definite = st.all_locs_definite;
    branch_sites = Hashtbl.fold (fun key () acc -> key :: acc) st.coverage [] }
