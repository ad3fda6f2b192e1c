open Minic

(* An expression that can neither trap nor read memory; only such
   subexpressions may be discarded by algebraic identities. *)
let rec is_effect_free (e : Instr.rexpr) =
  match e with
  | Instr.Const _ | Instr.Addr_global _ | Instr.Addr_local _ | Instr.Addr_string _ -> true
  | Instr.Load _ -> false (* may fault *)
  | Instr.Unop (_, e1) -> is_effect_free e1
  | Instr.Binop ((Ast.Div | Ast.Mod), _, _) -> false (* may trap *)
  | Instr.Binop (_, a, b) -> is_effect_free a && is_effect_free b

let rec fold_rexpr (e : Instr.rexpr) : Instr.rexpr =
  let module W = Dart_util.Word32 in
  match e with
  | Instr.Const _ | Instr.Addr_global _ | Instr.Addr_local _ | Instr.Addr_string _ -> e
  | Instr.Load a -> Instr.Load (fold_rexpr a)
  | Instr.Unop (op, e1) ->
    let f1 = fold_rexpr e1 in
    (match (op, f1) with
     | Ast.Neg, Instr.Const v -> Instr.Const (W.neg v)
     | Ast.Bitnot, Instr.Const v -> Instr.Const (W.lognot v)
     | Ast.Lognot, Instr.Const v -> Instr.Const (W.of_bool (not (W.to_bool v)))
     (* double negations *)
     | Ast.Neg, Instr.Unop (Ast.Neg, inner) -> inner
     | Ast.Bitnot, Instr.Unop (Ast.Bitnot, inner) -> inner
     | _ -> Instr.Unop (op, f1))
  | Instr.Binop (op, a, b) ->
    let fa = fold_rexpr a and fb = fold_rexpr b in
    (match (op, fa, fb) with
     (* Full constant folding; division by a constant zero is kept so
        the machine faults exactly as the original would. *)
     | _, Instr.Const x, Instr.Const y ->
       (match op with
        | Ast.Add -> Instr.Const (W.add x y)
        | Ast.Sub -> Instr.Const (W.sub x y)
        | Ast.Mul -> Instr.Const (W.mul x y)
        | Ast.Div -> if y = 0 then Instr.Binop (op, fa, fb) else Instr.Const (W.div x y)
        | Ast.Mod -> if y = 0 then Instr.Binop (op, fa, fb) else Instr.Const (W.rem x y)
        | Ast.Eq -> Instr.Const (W.of_bool (x = y))
        | Ast.Ne -> Instr.Const (W.of_bool (x <> y))
        | Ast.Lt -> Instr.Const (W.of_bool (x < y))
        | Ast.Le -> Instr.Const (W.of_bool (x <= y))
        | Ast.Gt -> Instr.Const (W.of_bool (x > y))
        | Ast.Ge -> Instr.Const (W.of_bool (x >= y))
        | Ast.Band -> Instr.Const (W.logand x y)
        | Ast.Bor -> Instr.Const (W.logor x y)
        | Ast.Bxor -> Instr.Const (W.logxor x y)
        | Ast.Shl -> Instr.Const (W.shift_left x y)
        | Ast.Shr -> Instr.Const (W.shift_right x y))
     (* Identities on a trap-free other operand. *)
     | Ast.Add, e1, Instr.Const 0 | Ast.Add, Instr.Const 0, e1 -> e1
     | Ast.Sub, e1, Instr.Const 0 -> e1
     | Ast.Mul, e1, Instr.Const 1 | Ast.Mul, Instr.Const 1, e1 -> e1
     | Ast.Mul, e1, Instr.Const 0 when is_effect_free e1 -> Instr.Const 0
     | Ast.Mul, Instr.Const 0, e1 when is_effect_free e1 -> Instr.Const 0
     | Ast.Band, e1, Instr.Const 0 when is_effect_free e1 -> Instr.Const 0
     | Ast.Band, Instr.Const 0, e1 when is_effect_free e1 -> Instr.Const 0
     | Ast.Bor, e1, Instr.Const 0 | Ast.Bor, Instr.Const 0, e1 -> e1
     | Ast.Bxor, e1, Instr.Const 0 | Ast.Bxor, Instr.Const 0, e1 -> e1
     | Ast.Div, e1, Instr.Const 1 -> e1
     | Ast.Shl, e1, Instr.Const 0 | Ast.Shr, e1, Instr.Const 0 -> e1
     | _ -> Instr.Binop (op, fa, fb))

(* Follow chains of unconditional gotos (cycle-safe). *)
let thread_target code l =
  let rec follow seen l =
    if List.mem l seen then l
    else begin
      match code.(l) with
      | Instr.Igoto l' -> follow (l :: seen) l'
      | _ -> l
    end
  in
  follow [] l

let optimize_func (f : Instr.func) : Instr.func =
  let code = Array.copy f.Instr.code in
  (* Pass 1: fold expressions. *)
  Array.iteri
    (fun i instr ->
      code.(i) <-
        (match instr with
         | Instr.Iassign (d, s) -> Instr.Iassign (fold_rexpr d, fold_rexpr s)
         | Instr.Iif (c, l) -> Instr.Iif (fold_rexpr c, l)
         | Instr.Icall { dst; kind; callee; args } ->
           Instr.Icall
             { dst = Option.map fold_rexpr dst;
               kind;
               callee;
               args = List.map fold_rexpr args }
         | Instr.Ireturn e -> Instr.Ireturn (Option.map fold_rexpr e)
         | Instr.Igoto _ | Instr.Iabort | Instr.Ihalt -> instr))
    code;
  (* Pass 2: constant branches become gotos (or fall-throughs). *)
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.Iif (Instr.Const c, l) ->
        code.(i) <- Instr.Igoto (if Dart_util.Word32.to_bool c then l else i + 1)
      | _ -> ())
    code;
  (* Pass 3: jump threading through goto chains. *)
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.Igoto l -> code.(i) <- Instr.Igoto (thread_target code l)
      | Instr.Iif (c, l) -> code.(i) <- Instr.Iif (c, thread_target code l)
      | _ -> ())
    code;
  { f with Instr.code }

let optimize_program (p : Instr.program) : Instr.program =
  let funcs = Hashtbl.create (Hashtbl.length p.Instr.funcs) in
  Hashtbl.iter (fun name f -> Hashtbl.replace funcs name (optimize_func f)) p.Instr.funcs;
  (* Every function changed, so the result extends no program. *)
  { p with Instr.funcs; linked_from = None }
