exception Error of Minic.Loc.t * string

open Minic

(* Instructions are emitted with symbolic label ids, then resolved to
   positions in a final pass. *)
type semi =
  | Splain of Instr.instr (* no label operand *)
  | Sif of Instr.rexpr * int (* label id *)
  | Sgoto of int
  | Slabel of int (* marks a position; emits nothing *)

type emitter = {
  mutable rev_code : (semi * Minic.Loc.t) list;
  mutable cur_loc : Minic.Loc.t;
  mutable next_label : int;
  mutable next_temp : int; (* next free temp cell offset *)
  slot_off : (int, int) Hashtbl.t; (* typechecker slot id -> frame offset *)
  intern : string -> int;
  mutable break_labels : int list;
  mutable continue_labels : int list;
}

let emit em s = em.rev_code <- (s, em.cur_loc) :: em.rev_code

let fresh_label em =
  let l = em.next_label in
  em.next_label <- l + 1;
  l

let place_label em l = emit em (Slabel l)

let fresh_temp em =
  let off = em.next_temp in
  em.next_temp <- off + 1;
  off

let slot_offset em loc slot =
  match Hashtbl.find_opt em.slot_off slot with
  | Some off -> off
  | None -> raise (Error (loc, Printf.sprintf "internal: unknown slot %d" slot))

(* Smart constructors fold constants so that address arithmetic for
   fixed offsets stays readable in dumps. *)
let add_rexpr a b =
  match (a, b) with
  | Instr.Const 0, e | e, Instr.Const 0 -> e
  | Instr.Const x, Instr.Const y -> Instr.Const (Dart_util.Word32.add x y)
  | _ -> Instr.Binop (Ast.Add, a, b)

let mul_rexpr a b =
  match (a, b) with
  | Instr.Const 1, e | e, Instr.Const 1 -> e
  | Instr.Const x, Instr.Const y -> Instr.Const (Dart_util.Word32.mul x y)
  | _ -> Instr.Binop (Ast.Mul, a, b)

let rec addr_of em (e : Tast.texpr) : Instr.rexpr =
  match e.tdesc with
  | Tast.Tvar (Tast.Vglobal g, _) -> Instr.Addr_global g
  | Tast.Tvar (Tast.Vlocal slot, _) -> Instr.Addr_local (slot_offset em e.tloc slot)
  | Tast.Tderef p -> lower_expr em p
  | Tast.Tfield (lv, _, off) -> add_rexpr (addr_of em lv) (Instr.Const off)
  | Tast.Tindex (lv, idx, elem_size) ->
    let i = lower_expr em idx in
    add_rexpr (addr_of em lv) (mul_rexpr i (Instr.Const elem_size))
  | Tast.Tdecay lv -> addr_of em lv
  | Tast.Tconst _ | Tast.Tstring _ | Tast.Tunop _ | Tast.Tbinop _ | Tast.Tptradd _
  | Tast.Tand _ | Tast.Tor _ | Tast.Tcond _ | Tast.Tcall _ | Tast.Taddr _ | Tast.Tcast _ ->
    raise (Error (e.tloc, "internal: not an lvalue"))

and lower_expr em (e : Tast.texpr) : Instr.rexpr =
  match e.tdesc with
  | Tast.Tconst n -> Instr.Const (Dart_util.Word32.norm n)
  | Tast.Tstring s -> Instr.Addr_string (em.intern s)
  | Tast.Tvar _ | Tast.Tderef _ | Tast.Tfield _ | Tast.Tindex _ ->
    Instr.Load (addr_of em e)
  | Tast.Tdecay lv | Tast.Taddr lv -> addr_of em lv
  | Tast.Tptradd (p, i, scale) ->
    add_rexpr (lower_expr em p) (mul_rexpr (lower_expr em i) (Instr.Const scale))
  | Tast.Tcast (Ctype.Tchar, e1) ->
    Instr.Binop (Ast.Band, lower_expr em e1, Instr.Const 255)
  | Tast.Tcast (_, e1) -> lower_expr em e1
  | Tast.Tunop (op, e1) -> Instr.Unop (op, lower_expr em e1)
  | Tast.Tbinop (op, a, b) -> Instr.Binop (op, lower_expr em a, lower_expr em b)
  | Tast.Tand (a, b) ->
    (* t <- 0; if !a goto end; if !b goto end; t <- 1; end: *)
    let t = Instr.Addr_local (fresh_temp em) in
    let l_end = fresh_label em in
    emit em (Splain (Instr.Iassign (t, Instr.Const 0)));
    lower_branch_false em a l_end;
    lower_branch_false em b l_end;
    emit em (Splain (Instr.Iassign (t, Instr.Const 1)));
    place_label em l_end;
    Instr.Load t
  | Tast.Tor (a, b) ->
    let t = Instr.Addr_local (fresh_temp em) in
    let l_end = fresh_label em in
    emit em (Splain (Instr.Iassign (t, Instr.Const 1)));
    lower_branch_true em a l_end;
    lower_branch_true em b l_end;
    emit em (Splain (Instr.Iassign (t, Instr.Const 0)));
    place_label em l_end;
    Instr.Load t
  | Tast.Tcond (c, a, b) ->
    let t = Instr.Addr_local (fresh_temp em) in
    let l_else = fresh_label em and l_end = fresh_label em in
    lower_branch_false em c l_else;
    let va = lower_expr em a in
    emit em (Splain (Instr.Iassign (t, va)));
    emit em (Sgoto l_end);
    place_label em l_else;
    let vb = lower_expr em b in
    emit em (Splain (Instr.Iassign (t, vb)));
    place_label em l_end;
    Instr.Load t
  | Tast.Tcall (kind, callee, args) -> lower_call em ~want_value:true kind callee args e.tloc

(* Jump to [l] when [e] is false; fall through when true. Short-circuit
   operators expand into one RAM conditional per atomic condition, as a
   CIL-based instrumentation would. *)
and lower_branch_false em (e : Tast.texpr) l =
  match e.tdesc with
  | Tast.Tand (a, b) ->
    lower_branch_false em a l;
    lower_branch_false em b l
  | Tast.Tor (a, b) ->
    let l_true = fresh_label em in
    lower_branch_true em a l_true;
    lower_branch_false em b l;
    place_label em l_true
  | Tast.Tunop (Ast.Lognot, e1) -> lower_branch_true em e1 l
  | _ ->
    let v = lower_expr em e in
    emit em (Sif (Instr.Unop (Ast.Lognot, v), l))

and lower_branch_true em (e : Tast.texpr) l =
  match e.tdesc with
  | Tast.Tand (a, b) ->
    let l_false = fresh_label em in
    lower_branch_false em a l_false;
    lower_branch_true em b l;
    place_label em l_false
  | Tast.Tor (a, b) ->
    lower_branch_true em a l;
    lower_branch_true em b l
  | Tast.Tunop (Ast.Lognot, e1) -> lower_branch_false em e1 l
  | _ ->
    let v = lower_expr em e in
    emit em (Sif (v, l))

and lower_call em ~want_value kind callee args loc : Instr.rexpr =
  let targs = List.map (lower_expr em) args in
  match kind with
  | Tast.Cbuiltin Tast.Babort ->
    emit em (Splain Instr.Iabort);
    Instr.Const 0
  | Tast.Cbuiltin Tast.Bassert ->
    (* if e goto ok; abort; ok: — the condition becomes a directable
       branch, so the directed search can steer toward violations. *)
    let l_ok = fresh_label em in
    (match targs with
     | [ v ] ->
       emit em (Sif (v, l_ok));
       emit em (Splain Instr.Iabort);
       place_label em l_ok
     | _ -> raise (Error (loc, "assert takes one argument")));
    Instr.Const 0
  | Tast.Cbuiltin Tast.Bassume ->
    let l_ok = fresh_label em in
    (match targs with
     | [ v ] ->
       emit em (Sif (v, l_ok));
       emit em (Splain Instr.Ihalt);
       place_label em l_ok
     | _ -> raise (Error (loc, "assume takes one argument")));
    Instr.Const 0
  | Tast.Cbuiltin (Tast.Bmalloc | Tast.Balloca | Tast.Bfree)
  | Tast.Cprogram | Tast.Cexternal | Tast.Clibrary ->
    let dst =
      if want_value then Some (Instr.Addr_local (fresh_temp em)) else None
    in
    emit em (Splain (Instr.Icall { dst; kind; callee; args = targs }));
    (match dst with
     | Some d -> Instr.Load d
     | None -> Instr.Const 0)

(* Best-effort source position for a statement (locations live on
   expressions in the typed AST). *)
let stmt_loc (s : Tast.tstmt) =
  match s with
  | Tast.TSexpr e
  | Tast.TSassign (e, _)
  | Tast.TSif (e, _, _)
  | Tast.TSwhile (e, _)
  | Tast.TSdowhile (_, e)
  | Tast.TSreturn (Some e)
  | Tast.TSfor (_, Some e, _, _)
  | Tast.TSdecl (_, _, Some e)
  | Tast.TSswitch (e, _) ->
    Some e.Tast.tloc
  | Tast.TSreturn None | Tast.TSfor (_, None, _, _) | Tast.TSdecl (_, _, None)
  | Tast.TSbreak | Tast.TScontinue | Tast.TSblock _ ->
    None

let rec lower_stmt em (s : Tast.tstmt) : unit =
  (match stmt_loc s with
   | Some l when l != Loc.dummy -> em.cur_loc <- l
   | Some _ | None -> ());
  match s with
  | Tast.TSexpr e ->
    (match e.tdesc with
     | Tast.Tcall (kind, callee, args) ->
       ignore (lower_call em ~want_value:false kind callee args e.tloc)
     | _ ->
       (* Pure expressions still get evaluated, so faults inside them
          (e.g. division by zero) surface at the right point. *)
       let v = lower_expr em e in
       let t = Instr.Addr_local (fresh_temp em) in
       emit em (Splain (Instr.Iassign (t, v))))
  | Tast.TSassign (lv, rv) ->
    let v = lower_expr em rv in
    let addr = addr_of em lv in
    emit em (Splain (Instr.Iassign (addr, v)))
  | Tast.TSif (c, b1, b2) ->
    let l_else = fresh_label em and l_end = fresh_label em in
    lower_branch_false em c l_else;
    List.iter (lower_stmt em) b1;
    emit em (Sgoto l_end);
    place_label em l_else;
    List.iter (lower_stmt em) b2;
    place_label em l_end
  | Tast.TSwhile (c, body) ->
    let l_cond = fresh_label em and l_end = fresh_label em in
    place_label em l_cond;
    lower_branch_false em c l_end;
    em.break_labels <- l_end :: em.break_labels;
    em.continue_labels <- l_cond :: em.continue_labels;
    List.iter (lower_stmt em) body;
    em.break_labels <- List.tl em.break_labels;
    em.continue_labels <- List.tl em.continue_labels;
    emit em (Sgoto l_cond);
    place_label em l_end
  | Tast.TSdowhile (body, c) ->
    let l_start = fresh_label em and l_cond = fresh_label em and l_end = fresh_label em in
    place_label em l_start;
    em.break_labels <- l_end :: em.break_labels;
    em.continue_labels <- l_cond :: em.continue_labels;
    List.iter (lower_stmt em) body;
    em.break_labels <- List.tl em.break_labels;
    em.continue_labels <- List.tl em.continue_labels;
    place_label em l_cond;
    lower_branch_true em c l_start;
    place_label em l_end
  | Tast.TSfor (init, cond, step, body) ->
    let l_cond = fresh_label em
    and l_step = fresh_label em
    and l_end = fresh_label em in
    List.iter (lower_stmt em) init;
    place_label em l_cond;
    (match cond with None -> () | Some c -> lower_branch_false em c l_end);
    em.break_labels <- l_end :: em.break_labels;
    em.continue_labels <- l_step :: em.continue_labels;
    List.iter (lower_stmt em) body;
    em.break_labels <- List.tl em.break_labels;
    em.continue_labels <- List.tl em.continue_labels;
    place_label em l_step;
    List.iter (lower_stmt em) step;
    emit em (Sgoto l_cond);
    place_label em l_end
  | Tast.TSreturn None -> emit em (Splain (Instr.Ireturn None))
  | Tast.TSreturn (Some e) ->
    let v = lower_expr em e in
    emit em (Splain (Instr.Ireturn (Some v)))
  | Tast.TSbreak ->
    (match em.break_labels with
     | l :: _ -> emit em (Sgoto l)
     | [] -> raise (Error (Loc.dummy, "internal: break outside loop")))
  | Tast.TScontinue ->
    (match em.continue_labels with
     | l :: _ -> emit em (Sgoto l)
     | [] -> raise (Error (Loc.dummy, "internal: continue outside loop")))
  | Tast.TSdecl (slot, _, init) ->
    (match init with
     | None -> ()
     | Some e ->
       let v = lower_expr em e in
       let off = slot_offset em Loc.dummy slot in
       emit em (Splain (Instr.Iassign (Instr.Addr_local off, v))))
  | Tast.TSswitch (scrutinee, groups) ->
    (* Dispatch: one conditional per case value (each individually
       directable by the search), then default or exit. Bodies are laid
       out in order so fallthrough is just fallthrough. *)
    let v = lower_expr em scrutinee in
    let t = Instr.Addr_local (fresh_temp em) in
    emit em (Splain (Instr.Iassign (t, v)));
    let l_end = fresh_label em in
    let group_labels = List.map (fun _ -> fresh_label em) groups in
    let default_label = ref l_end in
    List.iter2
      (fun (g : Tast.tswitch_case) lbl ->
        List.iter
          (fun value ->
            emit em
              (Sif (Instr.Binop (Ast.Eq, Instr.Load t, Instr.Const value), lbl)))
          g.Tast.tcase_values;
        if g.Tast.tcase_default then default_label := lbl)
      groups group_labels;
    emit em (Sgoto !default_label);
    em.break_labels <- l_end :: em.break_labels;
    List.iter2
      (fun (g : Tast.tswitch_case) lbl ->
        place_label em lbl;
        List.iter (lower_stmt em) g.Tast.tcase_body)
      groups group_labels;
    em.break_labels <- List.tl em.break_labels;
    place_label em l_end
  | Tast.TSblock b -> List.iter (lower_stmt em) b

(* Resolve symbolic labels to instruction indices. *)
let assemble rev_code =
  let semis = List.rev rev_code in
  let positions : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let pos = ref 0 in
  List.iter
    (fun (s, _) ->
      match s with
      | Slabel l -> Hashtbl.replace positions l !pos
      | Splain _ | Sif _ | Sgoto _ -> incr pos)
    semis;
  let resolve l =
    match Hashtbl.find_opt positions l with
    | Some p -> p
    | None -> raise (Error (Loc.dummy, Printf.sprintf "internal: unplaced label %d" l))
  in
  let resolved =
    List.filter_map
      (fun (s, loc) ->
        match s with
        | Slabel _ -> None
        | Splain i -> Some (i, loc)
        | Sif (e, l) -> Some (Instr.Iif (e, resolve l), loc)
        | Sgoto l -> Some (Instr.Igoto (resolve l), loc))
      semis
  in
  (Array.of_list (List.map fst resolved), Array.of_list (List.map snd resolved))

let lower_func structs intern (f : Tast.tfunc) : Instr.func =
  let slot_off : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let frame = ref 0 in
  List.iter
    (fun (slot, _, ty) ->
      Hashtbl.replace slot_off slot !frame;
      frame := !frame + Ctype.sizeof structs ty)
    f.Tast.tlocals;
  let em =
    { rev_code = [];
      cur_loc = f.Tast.tfloc;
      next_label = 0;
      next_temp = !frame;
      slot_off;
      intern;
      break_labels = [];
      continue_labels = [] }
  in
  List.iter (lower_stmt em) f.Tast.tbody;
  emit em (Splain (Instr.Ireturn None));
  let code, locs = assemble em.rev_code in
  let param_offsets =
    Array.of_list
      (List.map (fun (slot, _, _) -> Hashtbl.find slot_off slot) f.Tast.tparams)
  in
  { Instr.fname = f.Tast.tfname;
    nparams = List.length f.Tast.tparams;
    param_offsets;
    frame_size = em.next_temp;
    code;
    locs;
    slot_offsets = Array.of_seq (Hashtbl.to_seq slot_off);
    ret_ty = f.Tast.tret }

(* The function table, filled in declaration order whichever functions
   are lowered afresh, so that it iterates alike however the program
   was built. *)
let func_table (tp : Tast.tprogram) lower =
  let funcs : (string, Instr.func) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace funcs f.Tast.tfname (lower f)) tp.Tast.tfuncs;
  funcs

let lower_program (tp : Tast.tprogram) : Instr.program =
  let string_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rev_strings = ref [] in
  let count = ref 0 in
  let intern s =
    match Hashtbl.find_opt string_ids s with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.replace string_ids s i;
      rev_strings := s :: !rev_strings;
      i
  in
  let funcs = func_table tp (lower_func tp.Tast.structs intern) in
  { Instr.funcs;
    globals = tp.Tast.tglobals;
    structs = tp.Tast.structs;
    strings = Array.of_list (List.rev !rev_strings);
    externals = tp.Tast.texternals;
    library = tp.Tast.tlibrary;
    linked_from = None }

let extend (base : Instr.program) (tp : Tast.tprogram) : Instr.program =
  if tp.Tast.tglobals != base.Instr.globals then
    invalid_arg "Lower.extend: the program's globals are not its base's";
  let intern s =
    match Array.find_index (String.equal s) base.Instr.strings with
    | Some i -> i
    | None -> raise (Error (Loc.dummy, Printf.sprintf "linked code adds the string %S" s))
  in
  let lower (f : Tast.tfunc) =
    match Hashtbl.find_opt base.Instr.funcs f.Tast.tfname with
    | Some lowered -> lowered
    | None -> lower_func tp.Tast.structs intern f
  in
  { base with
    Instr.funcs = func_table tp lower;
    externals = tp.Tast.texternals;
    linked_from = Some base }

let lower_source ?(file = "<input>") ?(library = []) src =
  let ast = Parser.parse_program ~file src in
  let tp = Typecheck.check ~library ast in
  lower_program tp
