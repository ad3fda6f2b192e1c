(** The RAM-machine intermediate representation (paper §2.2).

    A program is a set of functions, each an array of labelled
    statements: assignments [m <- e], conditionals [if e goto l],
    calls, returns, [abort] and [halt]. Expressions are side-effect
    free; the lowering pass flattens calls, [&&]/[||] and [?:] into
    statements, so every conditional the machine executes corresponds
    to exactly one branch DART can direct. *)

type label = int (* index into the enclosing function's [code] array *)

(** Side-effect-free expressions. Addresses and values share one word
    type; [Load] reads the cell at the given address. *)
type rexpr =
  | Const of int
  | Load of rexpr
  | Addr_global of string
  | Addr_local of int (* cell offset within the current frame *)
  | Addr_string of int (* index into the program's interned strings *)
  | Unop of Minic.Ast.unop * rexpr
  | Binop of Minic.Ast.binop * rexpr * rexpr

type instr =
  | Iassign of rexpr * rexpr (* destination address, value *)
  | Iif of rexpr * label (* jump when the value is non-zero; else fall through *)
  | Igoto of label
  | Icall of {
      dst : rexpr option; (* address receiving the return value *)
      kind : Minic.Tast.call_kind;
      callee : string;
      args : rexpr list;
    }
  | Ireturn of rexpr option
  | Iabort (* program error (abort / failed assert) *)
  | Ihalt (* normal termination of the whole run (failed assume) *)

type func = {
  fname : string;
  nparams : int;
  param_offsets : int array; (* cell offset of each parameter in the frame *)
  frame_size : int; (* cells: parameters, locals, then lowering temporaries *)
  code : instr array;
  locs : Minic.Loc.t array; (* source location of each instruction *)
  slot_offsets : (int * int) array; (* typechecker slot id -> frame offset *)
  ret_ty : Minic.Ctype.t;
}

type program = {
  funcs : (string, func) Hashtbl.t;
  globals : Minic.Tast.tglobal list;
  structs : Minic.Ctype.struct_env;
  strings : string array;
  externals : Minic.Tast.fsig list;
  library : Minic.Tast.fsig list;
  linked_from : program option;
      (* The program this one extends ({!Lower.extend}): its functions,
         globals and strings are physically this program's, none of them
         calls a function added here, and only functions were added. *)
}

let find_func p name = Hashtbl.find_opt p.funcs name

(* ---- printing (for tests and debugging) ---------------------------------- *)

let rec rexpr_to_string = function
  | Const n -> string_of_int n
  | Load e -> Printf.sprintf "[%s]" (rexpr_to_string e)
  | Addr_global g -> "&" ^ g
  | Addr_local off -> Printf.sprintf "local+%d" off
  | Addr_string i -> Printf.sprintf "str#%d" i
  | Unop (op, e) -> Printf.sprintf "%s(%s)" (Minic.Pretty.unop_to_string op) (rexpr_to_string e)
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (rexpr_to_string a)
      (Minic.Pretty.binop_to_string op)
      (rexpr_to_string b)

let instr_to_string = function
  | Iassign (dst, v) -> Printf.sprintf "[%s] <- %s" (rexpr_to_string dst) (rexpr_to_string v)
  | Iif (e, l) -> Printf.sprintf "if %s goto %d" (rexpr_to_string e) l
  | Igoto l -> Printf.sprintf "goto %d" l
  | Icall { dst; callee; args; _ } ->
    let dst_str =
      match dst with None -> "" | Some d -> Printf.sprintf "[%s] <- " (rexpr_to_string d)
    in
    Printf.sprintf "%scall %s(%s)" dst_str callee
      (String.concat ", " (List.map rexpr_to_string args))
  | Ireturn None -> "return"
  | Ireturn (Some e) -> Printf.sprintf "return %s" (rexpr_to_string e)
  | Iabort -> "abort"
  | Ihalt -> "halt"

let func_to_string f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s (params=%d, frame=%d):\n" f.fname f.nparams f.frame_size);
  Array.iteri
    (fun i ins -> Buffer.add_string buf (Printf.sprintf "  %3d: %s\n" i (instr_to_string ins)))
    f.code;
  Buffer.contents buf
