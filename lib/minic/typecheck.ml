exception Error of Loc.t * string

let err loc fmt = Printf.ksprintf (fun msg -> raise (Error (loc, msg))) fmt

type fentry = {
  fe_ret : Ctype.t;
  fe_params : Ctype.t list;
  fe_kind : Tast.call_kind;
}

type env = {
  structs : Ctype.struct_env;
  funcs : (string, fentry) Hashtbl.t;
  globals : (string, Ctype.t) Hashtbl.t;
  constants : (string, int) Hashtbl.t; (* enum members *)
  (* Per-function state: *)
  mutable scopes : (string * int * Ctype.t) list list;
  mutable locals : (int * string * Ctype.t) list; (* reverse order *)
  mutable next_slot : int;
  mutable break_depth : int; (* enclosing loops and switches *)
  mutable continue_depth : int; (* enclosing loops only *)
  ret_ty : Ctype.t;
}

let sizeof env ty = Ctype.sizeof env.structs ty

(* ---- type utilities ------------------------------------------------------ *)

let rec check_wf env loc ty =
  match ty with
  | Ctype.Tint | Ctype.Tchar | Ctype.Tvoid -> ()
  | Ctype.Tptr t -> check_wf env loc t
  | Ctype.Tarray (t, n) ->
    if n <= 0 then err loc "array size must be positive";
    if not (Ctype.is_scalar t || (match t with Ctype.Tstruct _ | Ctype.Tarray _ -> true | _ -> false))
    then err loc "invalid array element type %s" (Ctype.to_string t);
    check_wf env loc t
  | Ctype.Tstruct name ->
    if not (Hashtbl.mem env.structs name) then err loc "unknown struct '%s'" name

let is_null_const (e : Tast.texpr) =
  match (e.tdesc, e.ty) with
  | Tast.Tconst 0, (Ctype.Tint | Ctype.Tptr _) -> true
  | _ -> false

(* Implicit conversion for assignment / argument passing / return. *)
let assignable ~from ~into =
  match (from, into) with
  | (Ctype.Tint | Ctype.Tchar), (Ctype.Tint | Ctype.Tchar) -> true
  | Ctype.Tptr a, Ctype.Tptr b -> Ctype.equal a b || a = Ctype.Tvoid || b = Ctype.Tvoid
  | _ -> false

(* [rhs] converted to [into] where C converts implicitly (assignment,
   initialisation, argument passing, return): an [int] going into a
   [char] keeps its low 8 bits, as an explicit [(char)] cast does. *)
let coerce loc (rhs : Tast.texpr) into =
  if not (assignable ~from:rhs.ty ~into || (is_null_const rhs && Ctype.is_pointer into)) then
    err loc "incompatible types: cannot use %s where %s is expected"
      (Ctype.to_string rhs.ty) (Ctype.to_string into);
  match (rhs.ty, into) with
  | Ctype.Tint, Ctype.Tchar -> Tast.mk ~loc:rhs.tloc Ctype.Tchar (Tast.Tcast (Ctype.Tchar, rhs))
  | _ -> rhs

let scalar_or_err loc (e : Tast.texpr) what =
  if not (Ctype.is_scalar e.ty) then
    err loc "%s must have scalar type, found %s" what (Ctype.to_string e.ty)

(* ---- constant evaluation (global initializers) --------------------------- *)

let rec const_eval ?(constants : (string, int) Hashtbl.t option) structs (e : Ast.expr) : int =
  let const_eval structs e = const_eval ?constants structs e in
  match e.edesc with
  | Ast.Evar name when Option.is_some constants
                       && Hashtbl.mem (Option.get constants) name ->
    Hashtbl.find (Option.get constants) name
  | Ast.Eint n -> n
  | Ast.Echar c -> Char.code c
  | Ast.Enull -> 0
  | Ast.Esizeof ty -> Ctype.sizeof structs ty
  | Ast.Eunop (Ast.Neg, e1) -> -const_eval structs e1
  | Ast.Eunop (Ast.Bitnot, e1) -> lnot (const_eval structs e1)
  | Ast.Eunop (Ast.Lognot, e1) -> if const_eval structs e1 = 0 then 1 else 0
  | Ast.Ebinop (op, a, b) ->
    let va = const_eval structs a and vb = const_eval structs b in
    (match op with
     | Ast.Add -> va + vb
     | Ast.Sub -> va - vb
     | Ast.Mul -> va * vb
     | Ast.Div ->
       if vb = 0 then err e.eloc "division by zero in constant initializer";
       va / vb
     | Ast.Mod ->
       if vb = 0 then err e.eloc "division by zero in constant initializer";
       va mod vb
     | Ast.Eq -> if va = vb then 1 else 0
     | Ast.Ne -> if va <> vb then 1 else 0
     | Ast.Lt -> if va < vb then 1 else 0
     | Ast.Le -> if va <= vb then 1 else 0
     | Ast.Gt -> if va > vb then 1 else 0
     | Ast.Ge -> if va >= vb then 1 else 0
     | Ast.Band -> va land vb
     | Ast.Bor -> va lor vb
     | Ast.Bxor -> va lxor vb
     | Ast.Shl -> va lsl (vb land 31)
     | Ast.Shr -> va asr (vb land 31))
  | Ast.Estring _ | Ast.Evar _ | Ast.Eand _ | Ast.Eor _ | Ast.Econd _ | Ast.Ecall _
  | Ast.Ederef _ | Ast.Eaddr _ | Ast.Efield _ | Ast.Earrow _ | Ast.Eindex _ | Ast.Ecast _ ->
    err e.eloc "global initializers must be constant expressions"

(* ---- variable lookup ------------------------------------------------------ *)

let lookup_var env loc name =
  let rec in_scopes = function
    | [] -> None
    | scope :: rest ->
      (match List.find_opt (fun (n, _, _) -> n = name) scope with
       | Some (_, slot, ty) -> Some (Tast.Vlocal slot, ty)
       | None -> in_scopes rest)
  in
  match in_scopes env.scopes with
  | Some r -> r
  | None ->
    (match Hashtbl.find_opt env.globals name with
     | Some ty -> (Tast.Vglobal name, ty)
     | None -> err loc "undeclared variable '%s'" name)

let declare_local env loc name ty =
  (match env.scopes with
   | scope :: _ when List.exists (fun (n, _, _) -> n = name) scope ->
     err loc "redeclaration of '%s'" name
   | _ -> ());
  let slot = env.next_slot in
  env.next_slot <- slot + 1;
  env.locals <- (slot, name, ty) :: env.locals;
  (match env.scopes with
   | scope :: rest -> env.scopes <- ((name, slot, ty) :: scope) :: rest
   | [] -> env.scopes <- [ [ (name, slot, ty) ] ]);
  slot

(* ---- expressions ----------------------------------------------------------- *)

let var_in_scope env name =
  List.exists (List.exists (fun (n, _, _) -> n = name)) env.scopes
  || Hashtbl.mem env.globals name

let rec check_lvalue env (e : Ast.expr) : Tast.texpr =
  let loc = e.eloc in
  match e.edesc with
  | Ast.Evar name ->
    let kind, ty = lookup_var env loc name in
    Tast.mk ~loc ty (Tast.Tvar (kind, name))
  | Ast.Ederef e1 ->
    let p = check_rvalue env e1 in
    (match p.ty with
     | Ctype.Tptr Ctype.Tvoid -> err loc "cannot dereference a void pointer"
     | Ctype.Tptr t -> Tast.mk ~loc t (Tast.Tderef p)
     | t -> err loc "cannot dereference a value of type %s" (Ctype.to_string t))
  | Ast.Efield (e1, f) ->
    let base = check_lvalue env e1 in
    (match base.ty with
     | Ctype.Tstruct sname ->
       (match Ctype.field_offset env.structs sname f with
        | off, fty -> Tast.mk ~loc fty (Tast.Tfield (base, f, off))
        | exception Not_found -> err loc "struct %s has no field '%s'" sname f)
     | t -> err loc "field access on non-struct type %s" (Ctype.to_string t))
  | Ast.Earrow (e1, f) ->
    (* e->f is sugar for dereference-then-field *)
    let deref = Ast.mk_expr ~loc (Ast.Ederef e1) in
    check_lvalue env (Ast.mk_expr ~loc (Ast.Efield (deref, f)))
  | Ast.Eindex (e1, idx) ->
    let i = check_rvalue env idx in
    scalar_or_err loc i "an array index";
    (* Indexing works both on arrays (in place) and on pointers. *)
    let as_array =
      match e1.edesc with
      | Ast.Evar _ | Ast.Ederef _ | Ast.Efield _ | Ast.Earrow _ | Ast.Eindex _ ->
        (try
           let lv = check_lvalue env e1 in
           match lv.ty with
           | Ctype.Tarray (elem, _) -> Some (lv, elem)
           | _ -> None
         with Error _ -> None)
      | _ -> None
    in
    (match as_array with
     | Some (lv, elem) ->
       Tast.mk ~loc elem (Tast.Tindex (lv, i, sizeof env elem))
     | None ->
       let p = check_rvalue env e1 in
       (match p.ty with
        | Ctype.Tptr Ctype.Tvoid -> err loc "cannot index a void pointer"
        | Ctype.Tptr elem ->
          let addr =
            Tast.mk ~loc p.ty (Tast.Tptradd (p, i, sizeof env elem))
          in
          Tast.mk ~loc elem (Tast.Tderef addr)
        | t -> err loc "cannot index a value of type %s" (Ctype.to_string t)))
  | Ast.Eint _ | Ast.Echar _ | Ast.Estring _ | Ast.Enull | Ast.Eunop _ | Ast.Ebinop _
  | Ast.Eand _ | Ast.Eor _ | Ast.Econd _ | Ast.Ecall _ | Ast.Eaddr _ | Ast.Ecast _
  | Ast.Esizeof _ ->
    err loc "expression is not an lvalue"

and check_rvalue env (e : Ast.expr) : Tast.texpr =
  let loc = e.eloc in
  match e.edesc with
  | Ast.Evar name
    when (not (var_in_scope env name)) && Hashtbl.mem env.constants name ->
    (* enum member: a plain integer constant *)
    Tast.mk ~loc Ctype.Tint (Tast.Tconst (Hashtbl.find env.constants name))
  | Ast.Eint n -> Tast.mk ~loc Ctype.Tint (Tast.Tconst n)
  | Ast.Echar c -> Tast.mk ~loc Ctype.Tchar (Tast.Tconst (Char.code c))
  | Ast.Enull -> Tast.mk ~loc (Ctype.Tptr Ctype.Tvoid) (Tast.Tconst 0)
  | Ast.Estring s -> Tast.mk ~loc (Ctype.Tptr Ctype.Tchar) (Tast.Tstring s)
  | Ast.Esizeof ty -> Tast.mk ~loc Ctype.Tint (Tast.Tconst (sizeof env ty))
  | Ast.Evar _ | Ast.Ederef _ | Ast.Efield _ | Ast.Earrow _ | Ast.Eindex _ ->
    let lv = check_lvalue env e in
    (match lv.ty with
     | Ctype.Tarray (elem, _) -> Tast.mk ~loc (Ctype.Tptr elem) (Tast.Tdecay lv)
     | Ctype.Tstruct _ -> err loc "struct values cannot be used directly; take a field or an address"
     | Ctype.Tvoid -> err loc "void value"
     | Ctype.Tint | Ctype.Tchar | Ctype.Tptr _ -> lv)
  | Ast.Eaddr e1 ->
    let lv = check_lvalue env e1 in
    (match lv.ty with
     | Ctype.Tarray (elem, _) ->
       (* &arr has the same value as arr decayed; give it pointer type. *)
       Tast.mk ~loc (Ctype.Tptr elem) (Tast.Tdecay lv)
     | t -> Tast.mk ~loc (Ctype.Tptr t) (Tast.Taddr lv))
  | Ast.Eunop (op, e1) ->
    let a = check_rvalue env e1 in
    (match op with
     | Ast.Neg | Ast.Bitnot ->
       if not (Ctype.is_arith a.ty) then
         err loc "arithmetic operator on non-arithmetic type %s" (Ctype.to_string a.ty);
       Tast.mk ~loc Ctype.Tint (Tast.Tunop (op, a))
     | Ast.Lognot ->
       scalar_or_err loc a "operand of '!'";
       Tast.mk ~loc Ctype.Tint (Tast.Tunop (op, a)))
  | Ast.Ebinop (op, e1, e2) -> check_binop env loc op e1 e2
  | Ast.Eand (e1, e2) ->
    let a = check_rvalue env e1 and b = check_rvalue env e2 in
    scalar_or_err loc a "operand of '&&'";
    scalar_or_err loc b "operand of '&&'";
    Tast.mk ~loc Ctype.Tint (Tast.Tand (a, b))
  | Ast.Eor (e1, e2) ->
    let a = check_rvalue env e1 and b = check_rvalue env e2 in
    scalar_or_err loc a "operand of '||'";
    scalar_or_err loc b "operand of '||'";
    Tast.mk ~loc Ctype.Tint (Tast.Tor (a, b))
  | Ast.Econd (c, e1, e2) ->
    let tc = check_rvalue env c in
    scalar_or_err loc tc "a condition";
    let a = check_rvalue env e1 and b = check_rvalue env e2 in
    let ty =
      if Ctype.is_arith a.ty && Ctype.is_arith b.ty then Ctype.Tint
      else if is_null_const a && Ctype.is_pointer b.ty then b.ty
      else if is_null_const b && Ctype.is_pointer a.ty then a.ty
      else if Ctype.equal a.ty b.ty then a.ty
      else
        err loc "branches of '?:' have incompatible types %s and %s"
          (Ctype.to_string a.ty) (Ctype.to_string b.ty)
    in
    Tast.mk ~loc ty (Tast.Tcond (tc, a, b))
  | Ast.Ecast (ty, e1) ->
    check_wf env loc ty;
    let a = check_rvalue env e1 in
    if not (Ctype.is_scalar ty || ty = Ctype.Tvoid) then
      err loc "cast to non-scalar type %s" (Ctype.to_string ty);
    if not (Ctype.is_scalar a.ty) then
      err loc "cast of non-scalar value of type %s" (Ctype.to_string a.ty);
    Tast.mk ~loc ty (Tast.Tcast (ty, a))
  | Ast.Ecall (name, args) -> check_call env loc name args

and check_binop env loc op e1 e2 =
  let a = check_rvalue env e1 and b = check_rvalue env e2 in
  let arith () =
    if not (Ctype.is_arith a.ty && Ctype.is_arith b.ty) then
      err loc "arithmetic operator on types %s and %s" (Ctype.to_string a.ty)
        (Ctype.to_string b.ty);
    Tast.mk ~loc Ctype.Tint (Tast.Tbinop (op, a, b))
  in
  match op with
  | Ast.Add ->
    (match (a.ty, b.ty) with
     | Ctype.Tptr t, _ when Ctype.is_arith b.ty ->
       Tast.mk ~loc a.ty (Tast.Tptradd (a, b, sizeof env t))
     | _, Ctype.Tptr t when Ctype.is_arith a.ty ->
       Tast.mk ~loc b.ty (Tast.Tptradd (b, a, sizeof env t))
     | _ -> arith ())
  | Ast.Sub ->
    (match (a.ty, b.ty) with
     | Ctype.Tptr t, _ when Ctype.is_arith b.ty ->
       let neg = Tast.mk ~loc Ctype.Tint (Tast.Tunop (Ast.Neg, b)) in
       Tast.mk ~loc a.ty (Tast.Tptradd (a, neg, sizeof env t))
     | Ctype.Tptr ta, Ctype.Tptr tb when Ctype.equal ta tb ->
       let diff = Tast.mk ~loc Ctype.Tint (Tast.Tbinop (Ast.Sub, a, b)) in
       let scale = sizeof env ta in
       if scale = 1 then diff
       else
         Tast.mk ~loc Ctype.Tint
           (Tast.Tbinop (Ast.Div, diff, Tast.mk ~loc Ctype.Tint (Tast.Tconst scale)))
     | _ -> arith ())
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let ok =
      (Ctype.is_arith a.ty && Ctype.is_arith b.ty)
      || (Ctype.is_pointer a.ty && Ctype.is_pointer b.ty)
      || (Ctype.is_pointer a.ty && is_null_const b)
      || (is_null_const a && Ctype.is_pointer b.ty)
    in
    if not ok then
      err loc "comparison between incompatible types %s and %s" (Ctype.to_string a.ty)
        (Ctype.to_string b.ty);
    Tast.mk ~loc Ctype.Tint (Tast.Tbinop (op, a, b))
  | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr ->
    arith ()

and check_call env loc name args =
  match Hashtbl.find_opt env.funcs name with
  | None -> err loc "call to undeclared function '%s'" name
  | Some fe ->
    let targs = List.map (check_rvalue env) args in
    let expected = List.length fe.fe_params and got = List.length targs in
    if expected <> got then
      err loc "function '%s' expects %d argument(s) but got %d" name expected got;
    let targs =
      List.mapi
        (fun i (arg, pty) ->
          try coerce loc arg pty
          with Error (l, m) -> err l "argument %d of '%s': %s" (i + 1) name m)
        (List.combine targs fe.fe_params)
    in
    Tast.mk ~loc fe.fe_ret (Tast.Tcall (fe.fe_kind, name, targs))

(* ---- statements ------------------------------------------------------------ *)

let in_loop env f =
  env.break_depth <- env.break_depth + 1;
  env.continue_depth <- env.continue_depth + 1;
  let r = f () in
  env.break_depth <- env.break_depth - 1;
  env.continue_depth <- env.continue_depth - 1;
  r

let rec check_stmt env (s : Ast.stmt) : Tast.tstmt =
  let loc = s.sloc in
  match s.sdesc with
  | Ast.Sexpr e ->
    let te = check_rvalue_or_void env e in
    Tast.TSexpr te
  | Ast.Sassign (lhs, rhs) ->
    let lv = check_lvalue env lhs in
    (match lv.ty with
     | Ctype.Tstruct _ | Ctype.Tarray _ ->
       err loc "cannot assign whole %s values" (Ctype.to_string lv.ty)
     | Ctype.Tvoid -> err loc "cannot assign to void"
     | Ctype.Tint | Ctype.Tchar | Ctype.Tptr _ -> ());
    let rv = coerce loc (check_rvalue env rhs) lv.ty in
    Tast.TSassign (lv, rv)
  | Ast.Sif (cond, b1, b2) ->
    let tc = check_rvalue env cond in
    scalar_or_err loc tc "an if condition";
    Tast.TSif (tc, check_block env b1, check_block env b2)
  | Ast.Swhile (cond, body) ->
    let tc = check_rvalue env cond in
    scalar_or_err loc tc "a while condition";
    let tb = in_loop env (fun () -> check_block env body) in
    Tast.TSwhile (tc, tb)
  | Ast.Sdowhile (body, cond) ->
    let tb = in_loop env (fun () -> check_block env body) in
    let tc = check_rvalue env cond in
    scalar_or_err loc tc "a do-while condition";
    Tast.TSdowhile (tb, tc)
  | Ast.Sfor (init, cond, step, body) ->
    (* The init declaration scopes over the whole loop. *)
    env.scopes <- [] :: env.scopes;
    let tinit = match init with None -> [] | Some s -> [ check_stmt env s ] in
    let tcond =
      match cond with
      | None -> None
      | Some c ->
        let tc = check_rvalue env c in
        scalar_or_err loc tc "a for condition";
        Some tc
    in
    let tstep = match step with None -> [] | Some s -> [ check_stmt env s ] in
    let tb = in_loop env (fun () -> check_block env body) in
    env.scopes <- List.tl env.scopes;
    Tast.TSfor (tinit, tcond, tstep, tb)
  | Ast.Sreturn None ->
    if env.ret_ty <> Ctype.Tvoid then
      err loc "return without a value in a function returning %s" (Ctype.to_string env.ret_ty);
    Tast.TSreturn None
  | Ast.Sreturn (Some e) ->
    if env.ret_ty = Ctype.Tvoid then err loc "return with a value in a void function";
    Tast.TSreturn (Some (coerce loc (check_rvalue env e) env.ret_ty))
  | Ast.Sbreak ->
    if env.break_depth = 0 then err loc "'break' outside of a loop or switch";
    Tast.TSbreak
  | Ast.Scontinue ->
    if env.continue_depth = 0 then err loc "'continue' outside of a loop";
    Tast.TScontinue
  | Ast.Sdecl (ty, name, init) ->
    check_wf env loc ty;
    if ty = Ctype.Tvoid then err loc "cannot declare a void variable";
    (match init with
     | None ->
       let slot = declare_local env loc name ty in
       Tast.TSdecl (slot, ty, None)
     | Some (Ast.Init_expr e) ->
       let te = check_rvalue env e in
       if not (Ctype.is_scalar ty) then
         err loc "a brace list is required to initialize %s" (Ctype.to_string ty);
       let te = coerce loc te ty in
       let slot = declare_local env loc name ty in
       Tast.TSdecl (slot, ty, Some te)
     | Some (Ast.Init_list es) ->
       (match ty with
        | Ctype.Tarray (elem, n) when Ctype.is_scalar elem ->
          if List.length es > n then
            err loc "too many initializers (%d) for %s" (List.length es)
              (Ctype.to_string ty);
          let elems = List.map (fun e -> coerce loc (check_rvalue env e) elem) es in
          let slot = declare_local env loc name ty in
          (* Expand to per-element stores; C zero-fills the rest. *)
          let elem_size = sizeof env elem in
          let arr = Tast.mk ~loc ty (Tast.Tvar (Tast.Vlocal slot, name)) in
          let store i te =
            Tast.TSassign
              ( Tast.mk ~loc elem
                  (Tast.Tindex (arr, Tast.mk ~loc Ctype.Tint (Tast.Tconst i), elem_size)),
                te )
          in
          let explicit = List.mapi store elems in
          let zero_fill =
            List.init (n - List.length elems) (fun k ->
                store (List.length elems + k) (Tast.mk ~loc Ctype.Tint (Tast.Tconst 0)))
          in
          Tast.TSblock (Tast.TSdecl (slot, ty, None) :: explicit @ zero_fill)
        | _ ->
          err loc "brace initializers only apply to arrays of scalars, not %s"
            (Ctype.to_string ty)))
  | Ast.Sswitch (scrutinee, groups) ->
    let ts = check_rvalue env scrutinee in
    if not (Ctype.is_arith ts.ty) then
      err loc "switch scrutinee must be arithmetic, found %s" (Ctype.to_string ts.ty);
    let seen_values = Hashtbl.create 8 in
    let seen_default = ref false in
    let tgroups =
      List.map
        (fun (g : Ast.switch_case) ->
          let values = ref [] in
          let default = ref false in
          List.iter
            (fun label ->
              match label with
              | Ast.Case e ->
                let v = const_eval ~constants:env.constants env.structs e in
                if Hashtbl.mem seen_values v then err e.eloc "duplicate case value %d" v;
                Hashtbl.replace seen_values v ();
                values := v :: !values
              | Ast.Default ->
                if !seen_default then err loc "duplicate default label";
                seen_default := true;
                default := true)
            g.Ast.case_labels;
          let body =
            env.break_depth <- env.break_depth + 1;
            let b = check_block env g.Ast.case_body in
            env.break_depth <- env.break_depth - 1;
            b
          in
          { Tast.tcase_values = List.rev !values; tcase_default = !default; tcase_body = body })
        groups
    in
    Tast.TSswitch (ts, tgroups)
  | Ast.Sblock b -> Tast.TSblock (check_block env b)

and check_rvalue_or_void env (e : Ast.expr) : Tast.texpr =
  (* A void-returning call is a valid expression statement. *)
  match e.edesc with
  | Ast.Ecall (name, args) -> check_call env e.eloc name args
  | _ -> check_rvalue env e

and check_block env (b : Ast.block) : Tast.tstmt list =
  env.scopes <- [] :: env.scopes;
  let r = List.map (check_stmt env) b in
  env.scopes <- List.tl env.scopes;
  r

(* ---- program --------------------------------------------------------------- *)

let builtin_sigs =
  [ ("malloc", (Ctype.Tptr Ctype.Tvoid, [ Ctype.Tint ], Tast.Bmalloc));
    ("alloca", (Ctype.Tptr Ctype.Tvoid, [ Ctype.Tint ], Tast.Balloca));
    ("free", (Ctype.Tvoid, [ Ctype.Tptr Ctype.Tvoid ], Tast.Bfree));
    ("abort", (Ctype.Tvoid, [], Tast.Babort));
    ("assert", (Ctype.Tvoid, [ Ctype.Tint ], Tast.Bassert));
    ("assume", (Ctype.Tvoid, [ Ctype.Tint ], Tast.Bassume)) ]

(* The program-wide tables both entry points build: [check] from
   source, [extend] from an already-checked program. *)
type decls = {
  d_structs : Ctype.struct_env;
  d_funcs : (string, fentry) Hashtbl.t;
  d_globals : (string, Ctype.t) Hashtbl.t;
  d_constants : (string, int) Hashtbl.t;
  d_protos : (string, Tast.fsig * Loc.t) Hashtbl.t; (* body-less declarations *)
  d_defined : (string, unit) Hashtbl.t; (* functions with a body *)
  d_library : Tast.fsig list;
}

let new_decls ~structs ~constants ~library =
  let d_funcs = Hashtbl.create 16 in
  (* Builtins are always in scope. *)
  List.iter
    (fun (name, (ret, params, b)) ->
      Hashtbl.replace d_funcs name { fe_ret = ret; fe_params = params; fe_kind = Tast.Cbuiltin b })
    builtin_sigs;
  { d_structs = structs;
    d_funcs;
    d_globals = Hashtbl.create 16;
    d_constants = constants;
    d_protos = Hashtbl.create 16;
    d_defined = Hashtbl.create 16;
    d_library = library }

let is_library d name = List.exists (fun (l : Tast.fsig) -> l.sig_name = name) d.d_library

let fsig_to_string (s : Tast.fsig) =
  Printf.sprintf "%s %s(%s)" (Ctype.to_string s.sig_ret) s.sig_name
    (String.concat ", " (List.map Ctype.to_string s.sig_params))

(* Pass 1 for one function: record its signature and classify it. *)
let declare_func d (f : Ast.func) =
  let signature =
    { Tast.sig_name = f.fname;
      sig_ret = f.fret;
      sig_params = List.map fst f.fparams }
  in
  (match f.fbody with
   | None ->
     (match Hashtbl.find_opt d.d_protos f.fname with
      | Some (prev, _) when prev <> signature ->
        err f.floc "conflicting declarations for '%s'" f.fname
      | _ -> Hashtbl.replace d.d_protos f.fname (signature, f.floc));
     (* Calls are typed against the prototype, but the host
        implementation receives the arguments of its own signature. *)
     (match List.find_opt (fun (l : Tast.fsig) -> l.sig_name = f.fname) d.d_library with
      | Some l when l <> signature ->
        err f.floc "prototype of library function '%s' does not match the host signature %s"
          f.fname (fsig_to_string l)
      | _ -> ())
   | Some _ ->
     if Hashtbl.mem d.d_defined f.fname then err f.floc "duplicate function '%s'" f.fname;
     Hashtbl.replace d.d_defined f.fname ());
  let kind =
    if f.fbody <> None then Tast.Cprogram
    else if is_library d f.fname then Tast.Clibrary
    else Tast.Cexternal
  in
  match Hashtbl.find_opt d.d_funcs f.fname with
  | Some prev when prev.fe_kind = Tast.Cprogram && kind <> Tast.Cprogram ->
    () (* definition seen first; keep it *)
  | _ ->
    Hashtbl.replace d.d_funcs f.fname
      { fe_ret = f.fret; fe_params = List.map fst f.fparams; fe_kind = kind }

(* Pass 2 for one function: check its body. *)
let check_func d (f : Ast.func) : Tast.tfunc =
  let env =
    { structs = d.d_structs; funcs = d.d_funcs; globals = d.d_globals;
      constants = d.d_constants; scopes = [ [] ]; locals = []; next_slot = 0;
      break_depth = 0; continue_depth = 0; ret_ty = f.fret }
  in
  let tparams =
    List.map
      (fun (ty, name) ->
        check_wf env f.floc ty;
        if not (Ctype.is_scalar ty) then
          err f.floc "parameter '%s' of '%s' must be scalar (use a pointer)" name f.fname;
        let slot = declare_local env f.floc name ty in
        (slot, name, ty))
      f.fparams
  in
  let body = match f.fbody with Some b -> b | None -> assert false in
  (* C scoping: the function's top-level block shares the parameter
     scope, so a local cannot redeclare a parameter. *)
  let tbody = List.map (check_stmt env) body in
  { Tast.tfname = f.fname;
    tret = f.fret;
    tparams;
    tlocals = List.rev env.locals;
    tbody;
    tfloc = f.floc }

(* Prototypes without a body, minus library functions, by name. *)
let externals d =
  Hashtbl.fold
    (fun name (signature, _) acc ->
      if Hashtbl.mem d.d_defined name || is_library d name then acc else signature :: acc)
    d.d_protos []
  |> List.sort (fun (a : Tast.fsig) b -> compare a.sig_name b.sig_name)

let check ?(library = []) (prog : Ast.program) : Tast.tprogram =
  let structs : Ctype.struct_env = Hashtbl.create 16 in
  let constants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let d = new_decls ~structs ~constants ~library in
  let funcs = d.d_funcs and globals = d.d_globals in
  (* Pass 1: collect structs, globals and function signatures. *)
  let global_order = ref [] in
  let func_order = ref [] in
  List.iter
    (fun g ->
      match g with
      | Ast.Gstruct def ->
        if Hashtbl.mem structs def.Ctype.sname then
          raise (Error (Loc.dummy, Printf.sprintf "duplicate struct '%s'" def.Ctype.sname));
        Hashtbl.replace structs def.Ctype.sname def
      | Ast.Genum { ename = _; emembers } ->
        let next = ref 0 in
        List.iter
          (fun (name, value) ->
            if Hashtbl.mem constants name || Hashtbl.mem globals name then
              raise (Error (Loc.dummy, Printf.sprintf "duplicate enum member '%s'" name));
            let v =
              match value with
              | None -> !next
              | Some e -> const_eval ~constants structs e
            in
            Hashtbl.replace constants name v;
            next := v + 1)
          emembers
      | Ast.Gvar { gty; gname; ginit; gextern; gloc } ->
        if Hashtbl.mem globals gname || Hashtbl.mem constants gname then
          err gloc "duplicate global '%s'" gname;
        if gty = Ctype.Tvoid then err gloc "cannot declare a void variable";
        Hashtbl.replace globals gname gty;
        (* A [char] keeps the low 8 bits of its initialiser, as [coerce]
           makes a local's. *)
        let const_into ty e =
          let v = const_eval ~constants structs e in
          if ty = Ctype.Tchar then v land 255 else v
        in
        let init =
          if gextern then None
          else
            Some
              (match ginit with
               | None -> [ 0 ]
               | Some (Ast.Init_expr e) ->
                 if not (Ctype.is_scalar gty) then
                   err gloc "a brace list is required to initialize %s"
                     (Ctype.to_string gty);
                 [ const_into gty e ]
               | Some (Ast.Init_list es) ->
                 (match gty with
                  | Ctype.Tarray (elem, n) when Ctype.is_arith elem ->
                    if List.length es > n then
                      err gloc "too many initializers for '%s'" gname;
                    List.map (const_into elem) es
                  | _ ->
                    err gloc "brace initializers only apply to arrays of scalars"))
        in
        global_order :=
          { Tast.gl_name = gname; gl_ty = gty; gl_init = init; gl_extern = gextern }
          :: !global_order
      | Ast.Gfun f ->
        declare_func d f;
        if f.fbody <> None then func_order := f :: !func_order)
    prog;
  (* A library function's prototype, if any, matched its host signature
     in pass 1; without one, the host signature declares it. *)
  List.iter
    (fun (l : Tast.fsig) ->
      match Hashtbl.find_opt funcs l.sig_name with
      | Some fe when fe.fe_kind = Tast.Cprogram ->
        raise
          (Error
             ( Loc.dummy,
               Printf.sprintf "library function '%s' is also defined in the program" l.sig_name ))
      | Some _ -> ()
      | None ->
        Hashtbl.replace funcs l.sig_name
          { fe_ret = l.sig_ret; fe_params = l.sig_params; fe_kind = Tast.Clibrary })
    library;
  (* Validate struct field types (now that all structs are known). *)
  Hashtbl.iter
    (fun _ (def : Ctype.struct_def) ->
      List.iter
        (fun (fname, fty) ->
          let dummy_env =
            { structs; funcs; globals; constants; scopes = []; locals = [];
              next_slot = 0; break_depth = 0; continue_depth = 0; ret_ty = Ctype.Tvoid }
          in
          check_wf dummy_env Loc.dummy fty;
          (* Reject infinitely sized types (struct containing itself by value). *)
          match fty with
          | Ctype.Tstruct inner when inner = def.Ctype.sname ->
            raise
              (Error
                 ( Loc.dummy,
                   Printf.sprintf "struct %s contains itself (field '%s')" def.Ctype.sname
                     fname ))
          | _ -> ())
        def.Ctype.sfields)
    structs;
  (* Pass 2: check function bodies. *)
  let tfuncs = List.rev_map (check_func d) !func_order in
  { Tast.structs;
    tglobals = List.rev !global_order;
    tfuncs;
    texternals = externals d;
    tlibrary = library;
    tconstants = constants }

let extend (base : Tast.tprogram) (prog : Ast.program) : Tast.tprogram =
  (* The base's tables, rebuilt from its checked form. Its struct and
     enum tables are shared, not copied: only functions are added. *)
  let d =
    new_decls ~structs:base.Tast.structs ~constants:base.Tast.tconstants
      ~library:base.Tast.tlibrary
  in
  List.iter
    (fun (g : Tast.tglobal) -> Hashtbl.replace d.d_globals g.gl_name g.gl_ty)
    base.Tast.tglobals;
  let enter kind (s : Tast.fsig) =
    Hashtbl.replace d.d_funcs s.sig_name
      { fe_ret = s.sig_ret; fe_params = s.sig_params; fe_kind = kind }
  in
  List.iter
    (fun (s : Tast.fsig) ->
      enter Tast.Cexternal s;
      Hashtbl.replace d.d_protos s.sig_name (s, Loc.dummy))
    base.Tast.texternals;
  List.iter (enter Tast.Clibrary) base.Tast.tlibrary;
  List.iter
    (fun (f : Tast.tfunc) ->
      enter Tast.Cprogram
        { Tast.sig_name = f.tfname;
          sig_ret = f.tret;
          sig_params = List.map (fun (_, _, ty) -> ty) f.tparams };
      Hashtbl.replace d.d_defined f.tfname ())
    base.Tast.tfuncs;
  let added =
    List.filter_map
      (fun g ->
        match g with
        | Ast.Gfun f ->
          (* The base's code is checked, so a new body may not change
             what one of its names means. *)
          if f.fbody <> None && Hashtbl.mem d.d_funcs f.fname then
            err f.floc "'%s' is already declared by the program being extended" f.fname;
          declare_func d f;
          if f.fbody <> None then Some f else None
        | Ast.Gstruct _ | Ast.Genum _ -> err Loc.dummy "only functions can extend a checked program"
        | Ast.Gvar { gloc; _ } -> err gloc "only functions can extend a checked program")
      prog
  in
  { base with
    Tast.tfuncs = base.Tast.tfuncs @ List.map (check_func d) added;
    texternals = externals d }
