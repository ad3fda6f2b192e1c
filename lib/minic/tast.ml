(** Typed abstract syntax, produced by {!Typecheck}.

    Compared to {!Ast}: every expression carries its type, variables
    are resolved (globals by name, locals by slot id), [e->f] is
    desugared to dereference-then-field, [NULL] to the constant 0, [sizeof] to a
    constant, array-typed expressions in rvalue position decay to
    pointers, and pointer arithmetic carries its element-size scale. *)

type var_kind =
  | Vglobal of string
  | Vlocal of int (* unique slot id within the enclosing function *)

type call_kind =
  | Cprogram (* function defined in the program: traced through *)
  | Cexternal (* part of the interface: returns a fresh input *)
  | Clibrary (* black box executed concretely (paper §3.1) *)
  | Cbuiltin of builtin

and builtin =
  | Bmalloc
  | Balloca
  | Bfree
  | Babort
  | Bassert
  | Bassume

type texpr = { tdesc : tdesc; ty : Ctype.t; tloc : Loc.t }

and tdesc =
  | Tconst of int
  | Tstring of string (* evaluates to the address of an interned char array *)
  | Tvar of var_kind * string
  | Tunop of Ast.unop * texpr
  | Tbinop of Ast.binop * texpr * texpr
  | Tptradd of texpr * texpr * int (* pointer + index, scaled by cell count *)
  | Tand of texpr * texpr
  | Tor of texpr * texpr
  | Tcond of texpr * texpr * texpr
  | Tcall of call_kind * string * texpr list
  | Tderef of texpr
  | Taddr of texpr (* operand is an lvalue *)
  | Tfield of texpr * string * int (* struct lvalue, field name, cell offset *)
  | Tindex of texpr * texpr * int (* array lvalue, index, element size *)
  | Tcast of Ctype.t * texpr
  | Tdecay of texpr (* array lvalue used as a pointer rvalue *)

type tstmt =
  | TSexpr of texpr
  | TSassign of texpr * texpr (* lhs is an lvalue *)
  | TSif of texpr * tstmt list * tstmt list
  | TSwhile of texpr * tstmt list
  | TSdowhile of tstmt list * texpr
  | TSfor of tstmt list * texpr option * tstmt list * tstmt list
  | TSreturn of texpr option
  | TSbreak
  | TScontinue
  | TSdecl of int * Ctype.t * texpr option
  | TSswitch of texpr * tswitch_case list
  | TSblock of tstmt list

and tswitch_case = {
  tcase_values : int list; (* constant labels of this group *)
  tcase_default : bool;
  tcase_body : tstmt list;
}

type tfunc = {
  tfname : string;
  tret : Ctype.t;
  tparams : (int * string * Ctype.t) list;
  tlocals : (int * string * Ctype.t) list; (* every slot, params included *)
  tbody : tstmt list;
  tfloc : Loc.t;
}

(** An external (interface) or library function signature. *)
type fsig = { sig_name : string; sig_ret : Ctype.t; sig_params : Ctype.t list }

type tglobal = {
  gl_name : string;
  gl_ty : Ctype.t;
  gl_init : int list option;
      (* constant initializer cells, zero-filled beyond the list;
         [None] for extern *)
  gl_extern : bool;
}

type tprogram = {
  structs : Ctype.struct_env;
  tglobals : tglobal list;
  tfuncs : tfunc list;
  texternals : fsig list; (* prototypes without bodies, minus library *)
  tlibrary : fsig list; (* black-box functions implemented by the host *)
  tconstants : (string, int) Hashtbl.t; (* enum members *)
}

let find_func p name = List.find_opt (fun f -> f.tfname = name) p.tfuncs

let mk ?(loc = Loc.dummy) ty tdesc = { tdesc; ty; tloc = loc }
