(* Subexpressions are fully parenthesized, which makes the printer
   trivially correct w.r.t. precedence and keeps the parse/print
   round-trip exact. *)

let escape_char c =
  match c with
  | '\n' -> "\\n"
  | '\t' -> "\\t"
  | '\r' -> "\\r"
  | '\000' -> "\\0"
  | '\\' -> "\\\\"
  | '\'' -> "\\'"
  | c -> String.make 1 c

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\'' -> Buffer.add_char buf '\''
      | c -> Buffer.add_string buf (escape_char c))
    s;
  Buffer.contents buf

let unop_to_string = function
  | Ast.Neg -> "-"
  | Ast.Lognot -> "!"
  | Ast.Bitnot -> "~"

let binop_to_string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Bxor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"

(* Split an array type into its element type and dimension list, for C
   declarator syntax. *)
let split_arrays ty =
  let rec go acc = function
    | Ctype.Tarray (t, n) -> go (n :: acc) t
    | t -> (t, List.rev acc)
  in
  go [] ty

let declarator ty name =
  let base, dims = split_arrays ty in
  let dims_str = String.concat "" (List.map (Printf.sprintf "[%d]") dims) in
  Printf.sprintf "%s %s%s" (Ctype.to_string base) name dims_str

let rec expr_to_string (e : Ast.expr) =
  match e.edesc with
  | Ast.Eint n -> string_of_int n
  | Ast.Echar c -> Printf.sprintf "'%s'" (escape_char c)
  | Ast.Estring s -> Printf.sprintf "\"%s\"" (escape_string s)
  | Ast.Enull -> "NULL"
  | Ast.Evar name -> name
  | Ast.Eunop (Ast.Neg, { edesc = Ast.Eint n; _ }) ->
    (* Mirror the parser's literal folding, keeping printing a fixpoint. *)
    string_of_int (-n)
  | Ast.Eunop (op, e1) -> Printf.sprintf "%s(%s)" (unop_to_string op) (expr_to_string e1)
  | Ast.Ebinop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_to_string op) (expr_to_string b)
  | Ast.Eand (a, b) -> Printf.sprintf "(%s && %s)" (expr_to_string a) (expr_to_string b)
  | Ast.Eor (a, b) -> Printf.sprintf "(%s || %s)" (expr_to_string a) (expr_to_string b)
  | Ast.Econd (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_to_string c) (expr_to_string a) (expr_to_string b)
  | Ast.Ecall (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_to_string args))
  | Ast.Ederef e1 -> Printf.sprintf "*(%s)" (expr_to_string e1)
  | Ast.Eaddr e1 -> Printf.sprintf "&(%s)" (expr_to_string e1)
  | Ast.Efield (e1, f) -> Printf.sprintf "(%s).%s" (expr_to_string e1) f
  | Ast.Earrow (e1, f) -> Printf.sprintf "(%s)->%s" (expr_to_string e1) f
  | Ast.Eindex (e1, i) -> Printf.sprintf "(%s)[%s]" (expr_to_string e1) (expr_to_string i)
  | Ast.Ecast (ty, e1) -> Printf.sprintf "(%s)(%s)" (Ctype.to_string ty) (expr_to_string e1)
  | Ast.Esizeof ty -> Printf.sprintf "sizeof(%s)" (Ctype.to_string ty)

let init_to_string = function
  | Ast.Init_expr e -> expr_to_string e
  | Ast.Init_list es ->
    Printf.sprintf "{ %s }" (String.concat ", " (List.map expr_to_string es))

let rec stmt_to_string ?(indent = 0) (s : Ast.stmt) =
  let pad = String.make (indent * 2) ' ' in
  match s.sdesc with
  | Ast.Sexpr e -> Printf.sprintf "%s%s;" pad (expr_to_string e)
  | Ast.Sassign (lhs, rhs) ->
    Printf.sprintf "%s%s = %s;" pad (expr_to_string lhs) (expr_to_string rhs)
  | Ast.Sif (c, b1, []) ->
    Printf.sprintf "%sif (%s) %s" pad (expr_to_string c) (block_to_string ~indent b1)
  | Ast.Sif (c, b1, b2) ->
    Printf.sprintf "%sif (%s) %s else %s" pad (expr_to_string c)
      (block_to_string ~indent b1) (block_to_string ~indent b2)
  | Ast.Swhile (c, b) ->
    Printf.sprintf "%swhile (%s) %s" pad (expr_to_string c) (block_to_string ~indent b)
  | Ast.Sdowhile (b, c) ->
    Printf.sprintf "%sdo %s while (%s);" pad (block_to_string ~indent b) (expr_to_string c)
  | Ast.Sfor (init, cond, step, b) ->
    let init_str =
      match init with None -> "" | Some s -> String.trim (inline_simple s)
    in
    let cond_str = match cond with None -> "" | Some e -> expr_to_string e in
    let step_str =
      match step with None -> "" | Some s -> String.trim (inline_simple s)
    in
    Printf.sprintf "%sfor (%s; %s; %s) %s" pad init_str cond_str step_str
      (block_to_string ~indent b)
  | Ast.Sreturn None -> pad ^ "return;"
  | Ast.Sreturn (Some e) -> Printf.sprintf "%sreturn %s;" pad (expr_to_string e)
  | Ast.Sbreak -> pad ^ "break;"
  | Ast.Scontinue -> pad ^ "continue;"
  | Ast.Sdecl (ty, name, None) -> Printf.sprintf "%s%s;" pad (declarator ty name)
  | Ast.Sdecl (ty, name, Some init) ->
    Printf.sprintf "%s%s = %s;" pad (declarator ty name) (init_to_string init)
  | Ast.Sswitch (scrutinee, groups) ->
    let group_str (g : Ast.switch_case) =
      let labels =
        List.map
          (fun l ->
            match l with
            | Ast.Case e -> Printf.sprintf "%s  case %s:" pad (expr_to_string e)
            | Ast.Default -> Printf.sprintf "%s  default:" pad)
          g.Ast.case_labels
      in
      let body = List.map (stmt_to_string ~indent:(indent + 2)) g.Ast.case_body in
      String.concat "\n" (labels @ body)
    in
    Printf.sprintf "%sswitch (%s) {\n%s\n%s}" pad (expr_to_string scrutinee)
      (String.concat "\n" (List.map group_str groups))
      pad
  | Ast.Sblock b -> pad ^ block_to_string ~indent b

(* A statement rendered without trailing ';', for 'for' headers. *)
and inline_simple (s : Ast.stmt) =
  let str = stmt_to_string ~indent:0 s in
  if String.length str > 0 && str.[String.length str - 1] = ';' then
    String.sub str 0 (String.length str - 1)
  else str

and block_to_string ~indent (b : Ast.block) =
  let pad = String.make (indent * 2) ' ' in
  let inner = List.map (stmt_to_string ~indent:(indent + 1)) b in
  Printf.sprintf "{\n%s\n%s}" (String.concat "\n" inner) pad

let global_to_string = function
  | Ast.Genum { ename; emembers } ->
    let member (n, v) =
      match v with
      | None -> Printf.sprintf "  %s" n
      | Some e -> Printf.sprintf "  %s = %s" n (expr_to_string e)
    in
    Printf.sprintf "enum%s {\n%s\n};"
      (match ename with None -> "" | Some n -> " " ^ n)
      (String.concat ",\n" (List.map member emembers))
  | Ast.Gstruct def ->
    let fields =
      List.map (fun (f, ty) -> Printf.sprintf "  %s;" (declarator ty f)) def.Ctype.sfields
    in
    Printf.sprintf "struct %s {\n%s\n};" def.Ctype.sname (String.concat "\n" fields)
  | Ast.Gvar { gty; gname; ginit; gextern; _ } ->
    let prefix = if gextern then "extern " else "" in
    (match ginit with
     | None -> Printf.sprintf "%s%s;" prefix (declarator gty gname)
     | Some init ->
       Printf.sprintf "%s%s = %s;" prefix (declarator gty gname) (init_to_string init))
  | Ast.Gfun f ->
    let params =
      match f.fparams with
      | [] -> "void"
      | ps -> String.concat ", " (List.map (fun (ty, n) -> declarator ty n) ps)
    in
    let header = Printf.sprintf "%s %s(%s)" (Ctype.to_string f.fret) f.fname params in
    (match f.fbody with
     | None -> header ^ ";"
     | Some b -> header ^ " " ^ block_to_string ~indent:0 b)

let program_to_string (p : Ast.program) =
  String.concat "\n\n" (List.map global_to_string p) ^ "\n"
