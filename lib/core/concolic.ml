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

type ctx = {
  opts : exec_options;
  rng : Dart_util.Prng.t;
  im : Inputs.t;
  prev_stack : branch_record array;
  sym : Symmem.t;
  structs : Minic.Ctype.struct_env;
  mutable k : int; (* conditionals executed *)
  mutable next_input : int;
  mutable new_branches : bool list; (* beyond the prefix, reversed *)
  mutable pc_rev : Constr.t option list;
  mutable sites_rev : (string * int) list; (* per conditional, same indexing *)
  mutable flip_confirmed : bool;
  mutable all_linear : bool;
  mutable all_locs_definite : bool;
  coverage : (string * int * bool, unit) Hashtbl.t;
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

(* ---- the instrumented run (Figure 3) ---------------------------------------- *)

let run_once ~opts ~rng ~im ~prev_stack ~entry (prog : Ram.Instr.program) : run_data =
  let m =
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
      all_linear = true;
      all_locs_definite = true;
      coverage = Hashtbl.create 64 }
  in
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
          | Some addr -> rand_init ctx m ~addr ~ty:signature.Minic.Tast.sig_ret ~depth:0);
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
    match Machine.run ~listener m ~entry with
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
  { outcome;
    stack = Array.append prefix fresh;
    path_constraint = Array.of_list (List.rev ctx.pc_rev);
    cond_sites = Array.of_list (List.rev ctx.sites_rev);
    conditionals = ctx.k;
    steps = Machine.steps m;
    inputs_read = ctx.next_input;
    all_linear = ctx.all_linear;
    all_locs_definite = ctx.all_locs_definite;
    branch_sites = Hashtbl.fold (fun key () acc -> key :: acc) ctx.coverage [] }
