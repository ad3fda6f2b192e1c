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
  max_ptr_depth : int;
  symbolic : bool;
  compile : bool;
}

let default_exec_options =
  { machine_config = Machine.default_config;
    library = [];
    symbolic_pointers = false;
    max_ptr_depth = 16;
    symbolic = true;
    compile = true }

exception Prediction_failure_exn

(* A run's state at an external call that returns a value, taken
   before the call's result is drawn: what a later run needs to resume
   from there instead of from [main]. *)
type snap = {
  sn_first : int; (* id of the call's first input read *)
  sn_k : int;
  sn_pc_rev : Constr.t option list;
  sn_sites_rev : (string * int) list;
  sn_all_linear : bool;
  sn_all_locs_definite : bool;
  sn_sym : Symmem.t;
  sn_coverage : (string * int * bool, unit) Hashtbl.t;
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
  mutable sym : Symmem.t;
  structs : Minic.Ctype.struct_env;
  mutable k : int; (* conditionals executed *)
  mutable next_input : int;
  mutable new_branches : bool list; (* beyond the prefix, reversed *)
  mutable pc_rev : Constr.t option list;
  mutable sites_rev : (string * int) list; (* per conditional, same indexing *)
  mutable flip_confirmed : bool;
  mutable all_linear : bool;
  mutable all_locs_definite : bool;
  mutable coverage : (string * int * bool, unit) Hashtbl.t;
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
let rec eval_sym ctx m ~base (e : Ram.Instr.rexpr) : Linexpr.t =
  let concrete () = Linexpr.of_int (Machine.eval_concrete m ~base e) in
  match e with
  | Ram.Instr.Const n -> Linexpr.of_int n
  | Ram.Instr.Addr_global _ | Ram.Instr.Addr_local _ | Ram.Instr.Addr_string _ ->
    concrete ()
  | Ram.Instr.Load a ->
    let sa = eval_sym ctx m ~base a in
    (match Linexpr.is_const sa with
     | Some _ ->
       let addr = Machine.eval_concrete m ~base a in
       (match Symmem.lookup ctx.sym ~addr with
        | Some se -> se
        | None -> concrete ())
     | None ->
       (* Dereference through an input-dependent address: the paper's
          all_locs_definite case. *)
       ctx.all_locs_definite <- false;
       concrete ())
  | Ram.Instr.Unop (op, e1) ->
    let s1 = eval_sym ctx m ~base e1 in
    (match op with
     | Minic.Ast.Neg -> Linexpr.neg s1
     | Minic.Ast.Bitnot ->
       (* Two's complement: ~x = -x - 1, still linear. *)
       Linexpr.add_const Zint.minus_one (Linexpr.neg s1)
     | Minic.Ast.Lognot ->
       (match Linexpr.is_const s1 with
        | Some _ -> concrete ()
        | None ->
          ctx.all_linear <- false;
          concrete ()))
  | Ram.Instr.Binop (op, a, b) ->
    let sa = eval_sym ctx m ~base a in
    let sb = eval_sym ctx m ~base b in
    let ca = Linexpr.is_const sa and cb = Linexpr.is_const sb in
    let nonlinear () =
      match (ca, cb) with
      | Some _, Some _ -> concrete ()
      | _ ->
        ctx.all_linear <- false;
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
          ctx.all_linear <- false;
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
let rec cond_constraint ctx m ~base (e : Ram.Instr.rexpr) ~taken : Constr.t option =
  match e with
  | Ram.Instr.Unop (Minic.Ast.Lognot, e1) -> cond_constraint ctx m ~base e1 ~taken:(not taken)
  | Ram.Instr.Binop (op, a, b) when is_comparison op ->
    let sa = eval_sym ctx m ~base a in
    let sb = eval_sym ctx m ~base b in
    if Linexpr.is_const sa <> None && Linexpr.is_const sb <> None then None
    else begin
      match Constr.of_comparison op sa sb with
      | Some c -> Some (if taken then c else Constr.negate c)
      | None -> None
    end
  | _ ->
    let sv = eval_sym ctx m ~base e in
    (match Linexpr.is_const sv with
     | Some _ -> None
     | None -> Some (Constr.truth sv taken))

(* ---- compare_and_update_stack (Figure 4) ----------------------------------- *)

let record_branch ctx ~site ~taken ~constraint_opt =
  ctx.pc_rev <- constraint_opt :: ctx.pc_rev;
  ctx.sites_rev <- site :: ctx.sites_rev;
  let k = ctx.k in
  ctx.k <- k + 1;
  let plen = Array.length ctx.prev_stack in
  if k < plen then begin
    if ctx.prev_stack.(k).br_branch <> taken then raise Prediction_failure_exn
    else if k = plen - 1 then ctx.flip_confirmed <- true
  end
  else ctx.new_branches <- taken :: ctx.new_branches

(* ---- random initialization (Figure 8) -------------------------------------- *)

let fresh_scalar ctx m ~addr ~kind =
  let id = ctx.next_input in
  ctx.next_input <- id + 1;
  let v = Inputs.get ctx.im ~id ~kind ~rng:ctx.rng in
  Machine.write_word m addr v;
  if ctx.opts.symbolic then Symmem.bind ctx.sym ~addr (Linexpr.var id);
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
  if depth >= ctx.opts.max_ptr_depth then begin
    (* Depth cap: force NULL without consuming an input, keeping input
       numbering deterministic along a path. *)
    Machine.write_word m addr 0;
    if ctx.opts.symbolic then Symmem.erase ctx.sym ~addr
  end
  else begin
    let id = ctx.next_input in
    ctx.next_input <- id + 1;
    let coin = Inputs.get ctx.im ~id ~kind:Inputs.Kcoin ~rng:ctx.rng in
    let non_null = coin <> 0 in
    if ctx.opts.symbolic then begin
      if ctx.opts.symbolic_pointers then begin
        (* Extension: the coin toss becomes a directable pseudo-branch
           with constraint coin <> 0 (or = 0). *)
        let c = Constr.truth (Linexpr.var id) non_null in
        (* No machine site backs the coin: attribute it to a synthetic
           one keyed by the input id so traces stay unambiguous. *)
        record_branch ctx ~site:(Driver_gen.coin_site, id) ~taken:non_null
          ~constraint_opt:(Some c)
      end
      else
        (* Paper semantics: the pointer shape is pure randomization the
           directed search cannot flip, so exhausting the value-directed
           search does not cover all behaviours — completeness is lost
           and the outer loop must keep restarting with fresh shapes
           ("randomization takes over", §6). *)
        ctx.all_locs_definite <- false
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
    if ctx.opts.symbolic then Symmem.erase ctx.sym ~addr
  end

(* ---- run resume ------------------------------------------------------------- *)

let snap_cost ctx m =
  Machine.footprint m + Symmem.symbolic_count ctx.sym + Hashtbl.length ctx.coverage

let take_snap ctx m ~dst ~ty =
  { sn_first = ctx.next_input;
    sn_k = ctx.k;
    sn_pc_rev = ctx.pc_rev;
    sn_sites_rev = ctx.sites_rev;
    sn_all_linear = ctx.all_linear;
    sn_all_locs_definite = ctx.all_locs_definite;
    sn_sym = Symmem.copy ctx.sym;
    sn_coverage = Hashtbl.copy ctx.coverage;
    sn_machine = Machine.snapshot m;
    sn_dst = dst;
    sn_ty = ty }

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
          Inputs.value_of im i = Some v && Inputs.kind_of im i = Some kind)
    in
    let dirs =
      agree (min plen (Array.length store.dirs)) (fun i ->
          prev_stack.(i).br_branch = store.dirs.(i))
    in
    let rec find = function
      | [] -> None
      | s :: rest as from ->
        if s.sn_first <= inputs && s.sn_k <= dirs && s.sn_k < plen then begin
          store.resumed <- store.resumed + 1;
          Some (s, from)
        end
        else find rest
    in
    find chain

let enter_snap ctx s chain =
  ctx.k <- s.sn_k;
  ctx.next_input <- s.sn_first;
  ctx.pc_rev <- s.sn_pc_rev;
  ctx.sites_rev <- s.sn_sites_rev;
  ctx.all_linear <- s.sn_all_linear;
  ctx.all_locs_definite <- s.sn_all_locs_definite;
  ctx.sym <- Symmem.copy s.sn_sym;
  ctx.coverage <- Hashtbl.copy s.sn_coverage;
  ctx.snaps <- chain

(* Keep this run's chain and what it read before the deepest snapshot.
   Every id below [sn_first] was read from (or drawn into) IM, and every
   direction below [sn_k] was taken: a prediction failure comes after
   all of the run's snapshots. *)
let save_chain store ctx ~prog ~stack =
  store.chain <- ctx.snaps;
  match ctx.snaps with
  | [] ->
    store.inputs <- [||];
    store.dirs <- [||]
  | deepest :: _ ->
    store.filled_by <- Some (prog, ctx.opts);
    store.inputs <-
      Array.init deepest.sn_first (fun i ->
          (Option.get (Inputs.value_of ctx.im i), Option.get (Inputs.kind_of ctx.im i)));
    store.dirs <- Array.init deepest.sn_k (fun i -> stack.(i).br_branch)

(* ---- the instrumented run (Figure 3) ---------------------------------------- *)

let run_once ?store ~opts ~rng ~im ~prev_stack ~entry (prog : Ram.Instr.program) : run_data =
  let from =
    match store with
    | Some st when opts.symbolic -> pick st ~prog ~opts ~im ~prev_stack
    | _ -> None
  in
  let m =
    match from with
    | Some (s, _) -> Machine.restore s.sn_machine
    | None ->
      Machine.load ~config:opts.machine_config ~library:opts.library ~compile:opts.compile prog
  in
  let ctx =
    { opts;
      rng;
      im;
      prev_stack;
      sym = Symmem.create ();
      structs = prog.Ram.Instr.structs;
      k = 0;
      next_input = 0;
      new_branches = [];
      pc_rev = [];
      sites_rev = [];
      flip_confirmed = false;
      (* Without the shadow no constraint is tracked, so the run cannot
         vouch for completeness. *)
      all_linear = opts.symbolic;
      all_locs_definite = true;
      coverage = Hashtbl.create 64;
      snaps = [];
      last_snap = Machine.steps m }
  in
  Option.iter (fun (s, chain) -> enter_snap ctx s chain) from;
  let listener =
    { Machine.on_store =
        (fun m ~dst ~src ~base ->
          if opts.symbolic then Symmem.bind ctx.sym ~addr:dst (eval_sym ctx m ~base src));
      on_branch =
        (fun m ~cond ~base ~taken ~site ->
          Hashtbl.replace ctx.coverage (site.Machine.site_fn, site.Machine.site_pc, taken) ();
          let constraint_opt =
            if opts.symbolic then cond_constraint ctx m ~base cond ~taken else None
          in
          record_branch ctx
            ~site:(site.Machine.site_fn, site.Machine.site_pc)
            ~taken ~constraint_opt);
      on_external =
        (fun m signature ~dst ->
          match dst with
          | None -> ()
          | Some addr ->
            let ty = signature.Minic.Tast.sig_ret in
            let gap = Machine.steps m - ctx.last_snap in
            (match store with
             | Some st when opts.symbolic && gap >= snap_min_steps ->
               let cost = snap_cost ctx m in
               if gap * snap_cells_per_step >= cost then begin
                 st.copied <- st.copied + cost;
                 ctx.last_snap <- Machine.steps m;
                 ctx.snaps <- take_snap ctx m ~dst:addr ~ty :: ctx.snaps
               end
             | _ -> ());
            rand_init ctx m ~addr ~ty ~depth:0);
      on_library =
        (fun m ~callee:_ ~args ~base ->
          if opts.symbolic then begin
            (* A black box consuming symbolic data: its behaviour is
               unknown to the theory, so completeness is lost. *)
            let symbolic_arg =
              List.exists
                (fun a -> Linexpr.is_const (eval_sym ctx m ~base a) = None)
                args
            in
            if symbolic_arg then ctx.all_linear <- false
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
  (* Assemble the final stack: validated prefix (with the flipped entry
     marked done when its branch was confirmed) plus new entries. *)
  let plen = Array.length prev_stack in
  let matched = min ctx.k plen in
  let prefix =
    Array.init matched (fun i ->
        let r = prev_stack.(i) in
        if i = plen - 1 && ctx.flip_confirmed then { r with br_done = true } else r)
  in
  let fresh =
    Array.of_list
      (List.rev_map (fun b -> { br_branch = b; br_done = false }) ctx.new_branches)
  in
  let stack = Array.append prefix fresh in
  Option.iter (fun st -> save_chain st ctx ~prog ~stack) store;
  { outcome;
    stack;
    path_constraint = Array.of_list (List.rev ctx.pc_rev);
    cond_sites = Array.of_list (List.rev ctx.sites_rev);
    conditionals = ctx.k;
    steps = Machine.steps m;
    inputs_read = ctx.next_input;
    all_linear = ctx.all_linear;
    all_locs_definite = ctx.all_locs_definite;
    branch_sites = Hashtbl.fold (fun key () acc -> key :: acc) ctx.coverage [] }
