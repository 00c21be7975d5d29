"""A recursive-descent parser for mini-C.

Grammar (EBNF, ignoring whitespace/comments)::

    program     = { global | function } ;
    global      = "int" IDENT [ "[" INT "]" | "=" [ "-" ] INT ] ";" ;
    function    = ( "int" | "void" ) IDENT "(" params ")" block ;
    params      = [ "int" IDENT { "," "int" IDENT } ] ;
    block       = "{" { stmt } "}" ;
    stmt        = vardecl | assign | if | while | for
                | "return" [ expr ] ";" | "break" ";" | "continue" ";"
                | call ";" | block ;
    vardecl     = "int" IDENT [ "[" INT "]" | "=" expr ] ";" ;
    assign      = IDENT ( "=" expr | "[" expr "]" "=" expr ) ";" ;
    if          = "if" "(" expr ")" stmt [ "else" stmt ] ;
    while       = "while" "(" expr ")" stmt ;
    for         = "for" "(" [ simple ] ";" [ expr ] ";" [ simple ] ")" stmt ;
    expr        = or ;
    or          = and { "||" and } ;
    and         = cmp { "&&" cmp } ;
    cmp         = add [ ( "<" | "<=" | ">" | ">=" | "==" | "!=" ) add ] ;
    add         = mul { ( "+" | "-" ) mul } ;
    mul         = unary { ( "*" | "/" | "%" ) unary } ;
    unary       = ( "-" | "!" ) unary | primary ;
    primary     = INT | IDENT [ "(" args ")" | "[" expr "]" ] | "(" expr ")" ;

A parsed ``if``/``while``/``for`` body that is a single statement is
normalised to a one-statement :class:`~repro.lang.astnodes.Block`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import astnodes as ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind


class ParseError(Exception):
    """Raised on syntax errors, with position information."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.col}: {message}")
        self.token = token


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------- #
    # Token helpers.                                                #
    # ------------------------------------------------------------- #

    def peek(self, ahead: int = 0) -> Token:
        # Past the end, every peek sees the final EOF token.
        try:
            return self._tokens[self._pos + ahead]
        except IndexError:
            return self._tokens[-1]

    def next(self) -> Token:
        tok = self.peek()
        self._pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok)
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not tok.is_keyword(word):
            raise ParseError(f"expected {word!r}, found {tok.text!r}", tok)
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok)
        return self.next()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind is not TokenKind.INT_LIT:
            raise ParseError(f"expected integer, found {tok.text!r}", tok)
        self.next()
        return int(tok.text)

    # ------------------------------------------------------------- #
    # Top level.                                                    #
    # ------------------------------------------------------------- #

    def program(self) -> ast.Program:
        globals_: List[ast.GlobalDecl] = []
        functions: List[ast.FuncDecl] = []
        while self.peek().kind is not TokenKind.EOF:
            tok = self.peek()
            if not (tok.is_keyword("int") or tok.is_keyword("void")):
                raise ParseError(
                    f"expected declaration, found {tok.text!r}", tok
                )
            if self.peek(2).is_punct("("):
                functions.append(self.function())
            else:
                globals_.append(self.global_decl())
        return ast.Program(tuple(globals_), tuple(functions))

    def global_decl(self) -> ast.GlobalDecl:
        self.expect_keyword("int")
        name = self.expect_ident()
        array_size: Optional[int] = None
        init: Optional[int] = None
        if self.peek().is_punct("["):
            self.next()
            array_size = self.expect_int()
            self.expect_punct("]")
        elif self.peek().is_punct("="):
            self.next()
            negative = False
            if self.peek().is_punct("-"):
                self.next()
                negative = True
            value = self.expect_int()
            init = -value if negative else value
        self.expect_punct(";")
        return ast.GlobalDecl(name.text, array_size, init, name.line)

    def function(self) -> ast.FuncDecl:
        ret = self.next()
        returns_value = ret.is_keyword("int")
        if not returns_value and not ret.is_keyword("void"):
            raise ParseError("expected 'int' or 'void'", ret)
        name = self.expect_ident()
        self.expect_punct("(")
        params: List[ast.Param] = []
        if not self.peek().is_punct(")"):
            while True:
                self.expect_keyword("int")
                p = self.expect_ident()
                params.append(ast.Param(p.text, p.line))
                if self.peek().is_punct(","):
                    self.next()
                    continue
                break
        self.expect_punct(")")
        body = self.block()
        return ast.FuncDecl(
            name.text, tuple(params), returns_value, body, name.line
        )

    # ------------------------------------------------------------- #
    # Statements.                                                   #
    # ------------------------------------------------------------- #

    def block(self) -> ast.Block:
        open_ = self.expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not self.peek().is_punct("}"):
            if self.peek().kind is TokenKind.EOF:
                raise ParseError("unterminated block", self.peek())
            stmts.append(self.statement())
        self.expect_punct("}")
        return ast.Block(tuple(stmts), open_.line)

    def statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.is_punct("{"):
            return self.block()
        if tok.is_keyword("int"):
            return self.var_decl()
        if tok.is_keyword("if"):
            return self.if_stmt()
        if tok.is_keyword("while"):
            return self.while_stmt()
        if tok.is_keyword("for"):
            return self.for_stmt()
        if tok.is_keyword("return"):
            self.next()
            value: Optional[ast.Expr] = None
            if not self.peek().is_punct(";"):
                value = self.expr()
            self.expect_punct(";")
            return ast.Return(value, tok.line)
        if tok.is_keyword("assert"):
            self.next()
            self.expect_punct("(")
            cond = self.expr()
            self.expect_punct(")")
            self.expect_punct(";")
            return ast.Assert(cond, tok.line)
        if tok.is_keyword("break"):
            self.next()
            self.expect_punct(";")
            return ast.Break(tok.line)
        if tok.is_keyword("continue"):
            self.next()
            self.expect_punct(";")
            return ast.Continue(tok.line)
        stmt = self.simple_statement()
        self.expect_punct(";")
        return stmt

    def simple_statement(self) -> ast.Stmt:
        """An assignment or call, without the trailing semicolon."""
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            if self.peek(1).is_punct("="):
                self.next()
                self.next()
                return ast.Assign(tok.text, self.expr(), tok.line)
            if self.peek(1).is_punct("["):
                # Could be `a[i] = e` -- scan for the matching `]` + `=`.
                save = self._pos
                self.next()
                self.next()
                index = self.expr()
                self.expect_punct("]")
                if self.peek().is_punct("="):
                    self.next()
                    return ast.ArrayAssign(tok.text, index, self.expr(), tok.line)
                self._pos = save
            if self.peek(1).is_punct("("):
                call = self.expr()
                if not isinstance(call, ast.Call):
                    raise ParseError("expected call statement", tok)
                return ast.ExprStmt(call, tok.line)
        raise ParseError(f"expected statement, found {tok.text!r}", tok)

    def var_decl(self) -> ast.VarDecl:
        self.expect_keyword("int")
        name = self.expect_ident()
        array_size: Optional[int] = None
        init: Optional[ast.Expr] = None
        if self.peek().is_punct("["):
            self.next()
            array_size = self.expect_int()
            self.expect_punct("]")
        elif self.peek().is_punct("="):
            self.next()
            init = self.expr()
        self.expect_punct(";")
        return ast.VarDecl(name.text, array_size, init, name.line)

    def if_stmt(self) -> ast.If:
        tok = self.expect_keyword("if")
        self.expect_punct("(")
        cond = self.expr()
        self.expect_punct(")")
        then_body = self.as_block(self.statement())
        else_body: Optional[ast.Block] = None
        if self.peek().is_keyword("else"):
            self.next()
            else_body = self.as_block(self.statement())
        return ast.If(cond, then_body, else_body, tok.line)

    def while_stmt(self) -> ast.While:
        tok = self.expect_keyword("while")
        self.expect_punct("(")
        cond = self.expr()
        self.expect_punct(")")
        return ast.While(cond, self.as_block(self.statement()), tok.line)

    def for_stmt(self) -> ast.For:
        tok = self.expect_keyword("for")
        self.expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self.peek().is_punct(";"):
            if self.peek().is_keyword("int"):
                # Reuse var_decl, which consumes the semicolon itself.
                init = self.var_decl()
            else:
                init = self.simple_statement()
                self.expect_punct(";")
        else:
            self.expect_punct(";")
        cond: Optional[ast.Expr] = None
        if not self.peek().is_punct(";"):
            cond = self.expr()
        self.expect_punct(";")
        step: Optional[ast.Stmt] = None
        if not self.peek().is_punct(")"):
            step = self.simple_statement()
        self.expect_punct(")")
        return ast.For(init, cond, step, self.as_block(self.statement()), tok.line)

    @staticmethod
    def as_block(stmt: ast.Stmt) -> ast.Block:
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block((stmt,), getattr(stmt, "line", 0))

    # ------------------------------------------------------------- #
    # Expressions (precedence climbing).                            #
    # ------------------------------------------------------------- #

    def expr(self) -> ast.Expr:
        return self.or_expr()

    def or_expr(self) -> ast.Expr:
        left = self.and_expr()
        while self.peek().is_punct("||"):
            tok = self.next()
            left = ast.Binary("||", left, self.and_expr(), tok.line)
        return left

    def and_expr(self) -> ast.Expr:
        left = self.cmp_expr()
        while self.peek().is_punct("&&"):
            tok = self.next()
            left = ast.Binary("&&", left, self.cmp_expr(), tok.line)
        return left

    def cmp_expr(self) -> ast.Expr:
        left = self.add_expr()
        tok = self.peek()
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if tok.is_punct(op):
                self.next()
                return ast.Binary(op, left, self.add_expr(), tok.line)
        return left

    def add_expr(self) -> ast.Expr:
        left = self.mul_expr()
        while self.peek().is_punct("+") or self.peek().is_punct("-"):
            tok = self.next()
            left = ast.Binary(tok.text, left, self.mul_expr(), tok.line)
        return left

    def mul_expr(self) -> ast.Expr:
        left = self.unary_expr()
        while (
            self.peek().is_punct("*")
            or self.peek().is_punct("/")
            or self.peek().is_punct("%")
        ):
            tok = self.next()
            left = ast.Binary(tok.text, left, self.unary_expr(), tok.line)
        return left

    def unary_expr(self) -> ast.Expr:
        tok = self.peek()
        if tok.is_punct("-") or tok.is_punct("!"):
            self.next()
            return ast.Unary(tok.text, self.unary_expr(), tok.line)
        return self.primary()

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.INT_LIT:
            self.next()
            return ast.IntLit(int(tok.text), tok.line)
        if tok.kind is TokenKind.IDENT:
            self.next()
            if self.peek().is_punct("("):
                self.next()
                args: List[ast.Expr] = []
                if not self.peek().is_punct(")"):
                    while True:
                        args.append(self.expr())
                        if self.peek().is_punct(","):
                            self.next()
                            continue
                        break
                self.expect_punct(")")
                return ast.Call(tok.text, tuple(args), tok.line)
            if self.peek().is_punct("["):
                self.next()
                index = self.expr()
                self.expect_punct("]")
                return ast.ArrayRef(tok.text, index, tok.line)
            return ast.Var(tok.text, tok.line)
        if tok.is_punct("("):
            self.next()
            inner = self.expr()
            self.expect_punct(")")
            return inner
        raise ParseError(f"expected expression, found {tok.text!r}", tok)


def parse_program(source: str) -> ast.Program:
    """Parse a mini-C translation unit from ``source``."""
    parser = _Parser(tokenize(source))
    return parser.program()


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (testing convenience)."""
    parser = _Parser(tokenize(source))
    expr = parser.expr()
    if parser.peek().kind is not TokenKind.EOF:
        raise ParseError("trailing input after expression", parser.peek())
    return expr
