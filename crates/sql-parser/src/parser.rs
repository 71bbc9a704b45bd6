//! Recursive-descent SQL parser.
//!
//! The grammar covers everything the adaptive generator can emit (and the
//! SQL text in the paper's listings), rendered back into the `sql-ast`
//! types. Precedence follows the usual SQL rules; since the generator emits
//! fully parenthesised expressions, the parser's precedence mostly matters
//! for hand-written SQL in tests and examples.

use crate::error::ParseError;
use crate::lexer::{tokenize, SpannedToken, Token};
use sql_ast::{
    AggregateFunction, BinaryOp, CaseBranch, ColumnConstraint, ColumnDef, ColumnRef, CreateIndex,
    CreateTable, CreateView, DataType, Delete, DropKind, Expr, Insert, Join, JoinType, OrderByItem,
    ScalarFunction, Select, SelectItem, SetOperation, SetOperator, SortOrder, Statement,
    TableConstraint, TableFactor, TableWithJoins, UnaryOp, Update, Value,
};

/// The deepest nesting of expressions, subqueries and prefix operators the
/// parser accepts. Recursive descent spends stack per level, so deeper
/// input is rejected with a [`ParseError`] instead of overflowing the
/// stack; generated SQL nests a handful of levels.
pub const MAX_NESTING: usize = 128;

/// A recursive-descent parser over a token stream.
pub struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Creates a parser for the given SQL text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the text cannot be tokenized.
    pub fn new(sql: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn peek_keyword(&self) -> Option<String> {
        self.peek().and_then(Token::keyword)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.offset())
    }

    fn expect_token(&mut self, expected: &Token, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword().as_deref() == Some(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_identifier(&mut self, what: &str) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Parses exactly one statement; trailing semicolons are allowed.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input or trailing garbage.
    pub fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        let stmt = self.parse_statement_inner()?;
        while self.peek() == Some(&Token::Semicolon) {
            self.pos += 1;
        }
        if self.pos != self.tokens.len() {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(stmt)
    }

    /// Parses a semicolon-separated list of statements.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn parse_statements(&mut self) -> Result<Vec<Statement>, ParseError> {
        let mut out = Vec::new();
        loop {
            while self.peek() == Some(&Token::Semicolon) {
                self.pos += 1;
            }
            if self.pos == self.tokens.len() {
                break;
            }
            out.push(self.parse_statement_inner()?);
        }
        Ok(out)
    }

    fn parse_statement_inner(&mut self) -> Result<Statement, ParseError> {
        match self.peek_keyword().as_deref() {
            Some("CREATE") => self.parse_create(),
            Some("INSERT") => self.parse_insert(),
            Some("UPDATE") => self.parse_update(),
            Some("DELETE") => self.parse_delete(),
            Some("ANALYZE") => self.parse_analyze(),
            Some("SELECT") => Ok(Statement::Select(Box::new(self.parse_select()?))),
            Some("DROP") => self.parse_drop(),
            Some("REFRESH") => self.parse_refresh(),
            Some("BEGIN") => {
                self.pos += 1;
                // Optional `DEFERRED` / `IMMEDIATE` mode keyword, then the
                // optional `TRANSACTION` / `WORK` noise word.
                let mode = if self.consume_keyword("DEFERRED") {
                    sql_ast::BeginMode::Deferred
                } else if self.consume_keyword("IMMEDIATE") {
                    sql_ast::BeginMode::Immediate
                } else {
                    sql_ast::BeginMode::Plain
                };
                if !self.consume_keyword("TRANSACTION") {
                    self.consume_keyword("WORK");
                }
                Ok(Statement::Begin(mode))
            }
            Some("COMMIT") => {
                self.pos += 1;
                if !self.consume_keyword("TRANSACTION") {
                    self.consume_keyword("WORK");
                }
                Ok(Statement::Commit)
            }
            Some("ROLLBACK") => self.parse_rollback(),
            Some("SAVEPOINT") => {
                self.pos += 1;
                let name = self.expect_identifier("savepoint name")?;
                Ok(Statement::Savepoint(name))
            }
            Some("RELEASE") => {
                self.pos += 1;
                // Optional `SAVEPOINT` noise word before the name.
                self.consume_keyword("SAVEPOINT");
                let name = self.expect_identifier("savepoint name")?;
                Ok(Statement::ReleaseSavepoint(name))
            }
            other => Err(self.error(format!("expected a statement, found {other:?}"))),
        }
    }

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("CREATE")?;
        match self.peek_keyword().as_deref() {
            Some("TABLE") => self.parse_create_table(),
            Some("UNIQUE") | Some("INDEX") => self.parse_create_index(),
            Some("VIEW") => self.parse_create_view(),
            other => Err(self.error(format!(
                "expected TABLE, INDEX or VIEW after CREATE, found {other:?}"
            ))),
        }
    }

    fn parse_create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("TABLE")?;
        let if_not_exists = if self.consume_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_identifier("table name")?;
        self.expect_token(&Token::LParen, "'('")?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            match self.peek_keyword().as_deref() {
                Some("PRIMARY") => {
                    self.pos += 1;
                    self.expect_keyword("KEY")?;
                    constraints.push(TableConstraint::PrimaryKey(self.parse_paren_name_list()?));
                }
                Some("UNIQUE") if self.peek_at(1) == Some(&Token::LParen) => {
                    self.pos += 1;
                    constraints.push(TableConstraint::Unique(self.parse_paren_name_list()?));
                }
                _ => columns.push(self.parse_column_def()?),
            }
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_token(&Token::RParen, "')'")?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            if_not_exists,
            columns,
            constraints,
        }))
    }

    fn parse_paren_name_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect_token(&Token::LParen, "'('")?;
        let mut names = Vec::new();
        loop {
            names.push(self.expect_identifier("column name")?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_token(&Token::RParen, "')'")?;
        Ok(names)
    }

    fn parse_column_def(&mut self) -> Result<ColumnDef, ParseError> {
        let name = self.expect_identifier("column name")?;
        let ty_word = self.expect_identifier("data type")?;
        let data_type = DataType::from_keyword(&ty_word)
            .ok_or_else(|| self.error(format!("unknown data type '{ty_word}'")))?;
        let mut constraints = Vec::new();
        loop {
            match self.peek_keyword().as_deref() {
                Some("PRIMARY") => {
                    self.pos += 1;
                    self.expect_keyword("KEY")?;
                    constraints.push(ColumnConstraint::PrimaryKey);
                }
                Some("NOT") => {
                    self.pos += 1;
                    self.expect_keyword("NULL")?;
                    constraints.push(ColumnConstraint::NotNull);
                }
                Some("UNIQUE") => {
                    self.pos += 1;
                    constraints.push(ColumnConstraint::Unique);
                }
                Some("DEFAULT") => {
                    self.pos += 1;
                    constraints.push(ColumnConstraint::Default(self.parse_expr()?));
                }
                _ => break,
            }
        }
        Ok(ColumnDef {
            name,
            data_type,
            constraints,
        })
    }

    fn parse_create_index(&mut self) -> Result<Statement, ParseError> {
        let unique = self.consume_keyword("UNIQUE");
        self.expect_keyword("INDEX")?;
        let name = self.expect_identifier("index name")?;
        self.expect_keyword("ON")?;
        let table = self.expect_identifier("table name")?;
        let columns = self.parse_paren_name_list()?;
        let where_clause = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
            where_clause,
        }))
    }

    fn parse_create_view(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("VIEW")?;
        let name = self.expect_identifier("view name")?;
        let columns = if self.peek() == Some(&Token::LParen) {
            self.parse_paren_name_list()?
        } else {
            Vec::new()
        };
        self.expect_keyword("AS")?;
        let query = self.parse_select()?;
        Ok(Statement::CreateView(CreateView {
            name,
            columns,
            query: Box::new(query),
        }))
    }

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("INSERT")?;
        let or_ignore = if self.consume_keyword("OR") {
            self.expect_keyword("IGNORE")?;
            true
        } else {
            false
        };
        self.expect_keyword("INTO")?;
        let table = self.expect_identifier("table name")?;
        let columns = if self.peek() == Some(&Token::LParen) {
            self.parse_paren_name_list()?
        } else {
            Vec::new()
        };
        self.expect_keyword("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect_token(&Token::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect_token(&Token::RParen, "')'")?;
            values.push(row);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            values,
            or_ignore,
        }))
    }

    fn parse_update(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("UPDATE")?;
        let table = self.expect_identifier("table name")?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_identifier("column name")?;
            self.expect_token(&Token::Eq, "'='")?;
            assignments.push((col, self.parse_expr()?));
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let where_clause = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_identifier("table name")?;
        let where_clause = if self.consume_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    fn parse_analyze(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("ANALYZE")?;
        let table = match self.peek() {
            Some(Token::Word(_)) => Some(self.expect_identifier("table name")?),
            _ => None,
        };
        Ok(Statement::Analyze(table))
    }

    fn parse_drop(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("DROP")?;
        let kind = match self.peek_keyword().as_deref() {
            Some("TABLE") => DropKind::Table,
            Some("VIEW") => DropKind::View,
            Some("INDEX") => DropKind::Index,
            other => {
                return Err(self.error(format!(
                    "expected TABLE, VIEW or INDEX after DROP, found {other:?}"
                )))
            }
        };
        self.pos += 1;
        let if_exists = if self.consume_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_identifier("object name")?;
        Ok(Statement::Drop {
            kind,
            name,
            if_exists,
        })
    }

    fn parse_refresh(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("REFRESH")?;
        self.expect_keyword("TABLE")?;
        let table = self.expect_identifier("table name")?;
        Ok(Statement::Refresh(table))
    }

    fn parse_rollback(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("ROLLBACK")?;
        if !self.consume_keyword("TRANSACTION") {
            self.consume_keyword("WORK");
        }
        if self.consume_keyword("TO") {
            // Optional `SAVEPOINT` noise word before the name.
            self.consume_keyword("SAVEPOINT");
            let name = self.expect_identifier("savepoint name")?;
            return Ok(Statement::RollbackTo(name));
        }
        Ok(Statement::Rollback)
    }

    /// Parses a `SELECT` query (including compound queries).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.nested(Parser::parse_select_inner)
    }

    fn parse_select_inner(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut select = Select::new();
        select.distinct = self.consume_keyword("DISTINCT");
        loop {
            select.projections.push(self.parse_select_item()?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.consume_keyword("FROM") {
            loop {
                select.from.push(self.parse_table_with_joins()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        if self.consume_keyword("WHERE") {
            select.where_clause = Some(self.parse_expr()?);
        }
        if self.consume_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                select.group_by.push(self.parse_expr()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        if self.consume_keyword("HAVING") {
            select.having = Some(self.parse_expr()?);
        }
        // Set operations bind before ORDER BY / LIMIT, which apply to the
        // whole compound query; the generator never mixes the two so we keep
        // the simple nesting where the tail query owns nothing.
        if let Some(op) = match self.peek_keyword().as_deref() {
            Some("UNION") => Some(SetOperator::Union),
            Some("INTERSECT") => Some(SetOperator::Intersect),
            Some("EXCEPT") => Some(SetOperator::Except),
            _ => None,
        } {
            self.pos += 1;
            let all = self.consume_keyword("ALL");
            let right = self.parse_select()?;
            select.set_op = Some(SetOperation {
                op,
                all,
                right: Box::new(right),
            });
        }
        if self.consume_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let order = if self.consume_keyword("DESC") {
                    SortOrder::Desc
                } else {
                    self.consume_keyword("ASC");
                    SortOrder::Asc
                };
                select.order_by.push(OrderByItem { expr, order });
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        if self.consume_keyword("LIMIT") {
            match self.advance() {
                Some(Token::Integer(n)) if n >= 0 => select.limit = Some(n as u64),
                other => return Err(self.error(format!("expected LIMIT count, found {other:?}"))),
            }
        }
        if self.consume_keyword("OFFSET") {
            match self.advance() {
                Some(Token::Integer(n)) if n >= 0 => select.offset = Some(n as u64),
                other => return Err(self.error(format!("expected OFFSET count, found {other:?}"))),
            }
        }
        Ok(select)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (Some(Token::Word(w)), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let table = w.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(table));
        }
        let expr = self.parse_expr()?;
        let alias = if self.consume_keyword("AS") {
            Some(self.expect_identifier("alias")?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_with_joins(&mut self) -> Result<TableWithJoins, ParseError> {
        let relation = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let join_type = match self.peek_keyword().as_deref() {
                Some("JOIN") => {
                    self.pos += 1;
                    JoinType::Inner
                }
                Some("INNER") => {
                    self.pos += 1;
                    self.expect_keyword("JOIN")?;
                    JoinType::Inner
                }
                Some("LEFT") => {
                    self.pos += 1;
                    self.consume_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    JoinType::Left
                }
                Some("RIGHT") => {
                    self.pos += 1;
                    self.consume_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    JoinType::Right
                }
                Some("FULL") => {
                    self.pos += 1;
                    self.consume_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    JoinType::Full
                }
                Some("CROSS") => {
                    self.pos += 1;
                    self.expect_keyword("JOIN")?;
                    JoinType::Cross
                }
                Some("NATURAL") => {
                    self.pos += 1;
                    self.expect_keyword("JOIN")?;
                    JoinType::Natural
                }
                _ => break,
            };
            let relation = self.parse_table_factor()?;
            let on = if join_type.takes_constraint() && self.consume_keyword("ON") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            joins.push(Join {
                join_type,
                relation,
                on,
            });
        }
        Ok(TableWithJoins { relation, joins })
    }

    fn parse_table_factor(&mut self) -> Result<TableFactor, ParseError> {
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let subquery = self.parse_select()?;
            self.expect_token(&Token::RParen, "')'")?;
            let alias = if self.consume_keyword("AS") {
                self.expect_identifier("alias")?
            } else {
                self.expect_identifier("derived-table alias")?
            };
            return Ok(TableFactor::Derived {
                subquery: Box::new(subquery),
                alias,
            });
        }
        let name = self.expect_identifier("table name")?;
        let alias = if self.consume_keyword("AS") {
            Some(self.expect_identifier("alias")?)
        } else {
            // A bare word that is not a clause keyword acts as an alias.
            match self.peek_keyword().as_deref() {
                Some(w)
                    if !is_clause_keyword(w)
                        && !matches!(
                            w,
                            "JOIN"
                                | "INNER"
                                | "LEFT"
                                | "RIGHT"
                                | "FULL"
                                | "CROSS"
                                | "NATURAL"
                                | "ON"
                        ) =>
                {
                    Some(self.expect_identifier("alias")?)
                }
                _ => None,
            }
        };
        Ok(TableFactor::Table { name, alias })
    }

    // ----- expressions ------------------------------------------------

    /// Parses a scalar expression.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.peek_keyword().as_deref() == Some("OR") {
            self.pos += 1;
            let right = self.parse_and()?;
            left = left.binary(BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.peek_keyword().as_deref() == Some("AND") {
            self.pos += 1;
            let right = self.parse_not()?;
            left = left.binary(BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.peek_keyword().as_deref() == Some("NOT")
            && self.peek_at(1).and_then(Token::keyword).as_deref() != Some("EXISTS")
        {
            self.pos += 1;
            let inner = self.nested(Parser::parse_not)?;
            return Ok(inner.not());
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_bit_or()?;
        loop {
            // Postfix predicates: IS [NOT] ..., [NOT] BETWEEN/IN/LIKE.
            match self.peek_keyword().as_deref() {
                Some("IS") => {
                    self.pos += 1;
                    let negated = self.consume_keyword("NOT");
                    match self.peek_keyword().as_deref() {
                        Some("NULL") => {
                            self.pos += 1;
                            left = Expr::IsNull {
                                expr: Box::new(left),
                                negated,
                            };
                        }
                        Some("TRUE") => {
                            self.pos += 1;
                            left = Expr::IsBool {
                                expr: Box::new(left),
                                target: true,
                                negated,
                            };
                        }
                        Some("FALSE") => {
                            self.pos += 1;
                            left = Expr::IsBool {
                                expr: Box::new(left),
                                target: false,
                                negated,
                            };
                        }
                        Some("DISTINCT") => {
                            self.pos += 1;
                            self.expect_keyword("FROM")?;
                            let right = self.parse_bit_or()?;
                            let op = if negated {
                                BinaryOp::IsNotDistinctFrom
                            } else {
                                BinaryOp::IsDistinctFrom
                            };
                            left = left.binary(op, right);
                        }
                        other => {
                            return Err(self.error(format!(
                                "expected NULL, TRUE, FALSE or DISTINCT after IS, found {other:?}"
                            )))
                        }
                    }
                    continue;
                }
                Some("NOT") => {
                    let next = self.peek_at(1).and_then(Token::keyword);
                    match next.as_deref() {
                        Some("BETWEEN") => {
                            self.pos += 2;
                            left = self.parse_between(left, true)?;
                            continue;
                        }
                        Some("IN") => {
                            self.pos += 2;
                            left = self.parse_in(left, true)?;
                            continue;
                        }
                        Some("LIKE") => {
                            self.pos += 2;
                            let pattern = self.parse_bit_or()?;
                            left = Expr::Like {
                                expr: Box::new(left),
                                pattern: Box::new(pattern),
                                negated: true,
                            };
                            continue;
                        }
                        _ => break,
                    }
                }
                Some("BETWEEN") => {
                    self.pos += 1;
                    left = self.parse_between(left, false)?;
                    continue;
                }
                Some("IN") => {
                    self.pos += 1;
                    left = self.parse_in(left, false)?;
                    continue;
                }
                Some("LIKE") => {
                    self.pos += 1;
                    let pattern = self.parse_bit_or()?;
                    left = Expr::Like {
                        expr: Box::new(left),
                        pattern: Box::new(pattern),
                        negated: false,
                    };
                    continue;
                }
                _ => {}
            }
            let op = match self.peek() {
                Some(Token::Eq) => BinaryOp::Eq,
                Some(Token::Neq) => BinaryOp::Neq,
                Some(Token::NeqLtGt) => BinaryOp::NeqLtGt,
                Some(Token::Lt) => BinaryOp::Lt,
                Some(Token::Le) => BinaryOp::Le,
                Some(Token::Gt) => BinaryOp::Gt,
                Some(Token::Ge) => BinaryOp::Ge,
                Some(Token::NullSafeEq) => BinaryOp::NullSafeEq,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_bit_or()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_between(&mut self, expr: Expr, negated: bool) -> Result<Expr, ParseError> {
        let low = self.parse_bit_or()?;
        self.expect_keyword("AND")?;
        let high = self.parse_bit_or()?;
        Ok(Expr::Between {
            expr: Box::new(expr),
            low: Box::new(low),
            high: Box::new(high),
            negated,
        })
    }

    fn parse_in(&mut self, expr: Expr, negated: bool) -> Result<Expr, ParseError> {
        self.expect_token(&Token::LParen, "'('")?;
        if self.peek_keyword().as_deref() == Some("SELECT") {
            let subquery = self.parse_select()?;
            self.expect_token(&Token::RParen, "')'")?;
            return Ok(Expr::InSubquery {
                expr: Box::new(expr),
                subquery: Box::new(subquery),
                negated,
            });
        }
        let mut list = Vec::new();
        loop {
            list.push(self.parse_expr()?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_token(&Token::RParen, "')'")?;
        Ok(Expr::InList {
            expr: Box::new(expr),
            list,
            negated,
        })
    }

    fn parse_bit_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_bit_and()?;
        loop {
            let op = match self.peek() {
                Some(Token::Pipe) => BinaryOp::BitOr,
                Some(Token::Hash) => BinaryOp::BitXor,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_bit_and()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_bit_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_shift()?;
        while self.peek() == Some(&Token::Amp) {
            self.pos += 1;
            let right = self.parse_shift()?;
            left = left.binary(BinaryOp::BitAnd, right);
        }
        Ok(left)
    }

    fn parse_shift(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_add_sub()?;
        loop {
            let op = match self.peek() {
                Some(Token::Shl) => BinaryOp::ShiftLeft,
                Some(Token::Shr) => BinaryOp::ShiftRight,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_add_sub()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_add_sub(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_mul_div()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_mul_div()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_mul_div(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_concat()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_concat()?;
            left = left.binary(op, right);
        }
        Ok(left)
    }

    fn parse_concat(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        while self.peek() == Some(&Token::DoublePipe) {
            self.pos += 1;
            let right = self.parse_unary()?;
            left = left.binary(BinaryOp::Concat, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Token::Minus) => Some(UnaryOp::Neg),
            Some(Token::Plus) => Some(UnaryOp::Plus),
            Some(Token::Tilde) => Some(UnaryOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let inner = self.nested(Parser::parse_unary)?;
            // Fold a sign applied to a numeric literal into the literal so
            // that `-3` round-trips as the literal the AST rendering emits.
            if op == UnaryOp::Neg {
                match &inner {
                    Expr::Literal(Value::Integer(i)) => {
                        return Ok(Expr::Literal(Value::Integer(-i)))
                    }
                    Expr::Literal(Value::Real(r)) => return Ok(Expr::Literal(Value::Real(-r))),
                    _ => {}
                }
            }
            return Ok(Expr::Unary {
                op,
                expr: Box::new(inner),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Integer(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Integer(v)))
            }
            Some(Token::Real(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Real(v)))
            }
            Some(Token::StringLit(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                if self.peek_keyword().as_deref() == Some("SELECT") {
                    let subquery = self.parse_select()?;
                    self.expect_token(&Token::RParen, "')'")?;
                    return Ok(Expr::ScalarSubquery(Box::new(subquery)));
                }
                let inner = self.parse_expr()?;
                self.expect_token(&Token::RParen, "')'")?;
                Ok(inner)
            }
            Some(Token::Word(word)) => self.parse_word_primary(word),
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }

    fn parse_word_primary(&mut self, word: String) -> Result<Expr, ParseError> {
        let upper = word.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.pos += 1;
                return Ok(Expr::null());
            }
            "TRUE" => {
                self.pos += 1;
                return Ok(Expr::boolean(true));
            }
            "FALSE" => {
                self.pos += 1;
                return Ok(Expr::boolean(false));
            }
            "NOT" => {
                // `NOT EXISTS (...)` reaches the primary level.
                self.pos += 1;
                self.expect_keyword("EXISTS")?;
                self.expect_token(&Token::LParen, "'('")?;
                let subquery = self.parse_select()?;
                self.expect_token(&Token::RParen, "')'")?;
                return Ok(Expr::Exists {
                    subquery: Box::new(subquery),
                    negated: true,
                });
            }
            "EXISTS" => {
                self.pos += 1;
                self.expect_token(&Token::LParen, "'('")?;
                let subquery = self.parse_select()?;
                self.expect_token(&Token::RParen, "')'")?;
                return Ok(Expr::Exists {
                    subquery: Box::new(subquery),
                    negated: false,
                });
            }
            "CASE" => {
                self.pos += 1;
                return self.parse_case();
            }
            "CAST" => {
                self.pos += 1;
                self.expect_token(&Token::LParen, "'('")?;
                let inner = self.parse_expr()?;
                self.expect_keyword("AS")?;
                let ty_word = self.expect_identifier("data type")?;
                let data_type = DataType::from_keyword(&ty_word)
                    .ok_or_else(|| self.error(format!("unknown data type '{ty_word}'")))?;
                self.expect_token(&Token::RParen, "')'")?;
                return Ok(Expr::Cast {
                    expr: Box::new(inner),
                    data_type,
                });
            }
            _ => {}
        }
        // Function call?
        if self.peek_at(1) == Some(&Token::LParen) {
            self.pos += 2;
            if let Some(agg) = AggregateFunction::from_name(&upper) {
                let distinct = self.consume_keyword("DISTINCT");
                let arg = if self.peek() == Some(&Token::Star) {
                    self.pos += 1;
                    None
                } else {
                    Some(Box::new(self.parse_expr()?))
                };
                self.expect_token(&Token::RParen, "')'")?;
                return Ok(Expr::Aggregate {
                    func: agg,
                    arg,
                    distinct,
                });
            }
            let func = ScalarFunction::from_name(&upper)
                .ok_or_else(|| self.error(format!("unknown function '{word}'")))?;
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect_token(&Token::RParen, "')'")?;
            return Ok(Expr::Function { func, args });
        }
        // Column reference, possibly qualified.
        self.pos += 1;
        if self.peek() == Some(&Token::Dot) {
            if let Some(Token::Word(col)) = self.peek_at(1).cloned() {
                self.pos += 2;
                return Ok(Expr::Column(ColumnRef::qualified(word, col)));
            }
        }
        Ok(Expr::Column(ColumnRef::unqualified(word)))
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        let operand = if self.peek_keyword().as_deref() != Some("WHEN") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.consume_keyword("WHEN") {
            let when = self.parse_expr()?;
            self.expect_keyword("THEN")?;
            let then = self.parse_expr()?;
            branches.push(CaseBranch { when, then });
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.consume_keyword("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }
}

fn is_clause_keyword(word: &str) -> bool {
    matches!(
        word,
        "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "OFFSET"
            | "UNION"
            | "INTERSECT"
            | "EXCEPT"
            | "AS"
            | "SELECT"
            | "FROM"
            | "ON"
            | "VALUES"
            | "SET"
    )
}

/// Parses a single SQL statement from text.
///
/// # Errors
///
/// Returns a [`ParseError`] if the text is not a single well-formed
/// statement.
///
/// # Examples
///
/// ```
/// let stmt = sql_parser::parse_statement("SELECT * FROM t0 WHERE c0 = 1").unwrap();
/// assert!(stmt.is_query());
/// ```
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    Parser::new(sql)?.parse_statement()
}

/// Parses a semicolon-separated script into statements.
///
/// # Errors
///
/// Returns a [`ParseError`] if any statement is malformed.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>, ParseError> {
    Parser::new(sql)?.parse_statements()
}

/// Parses a scalar expression from text.
///
/// # Errors
///
/// Returns a [`ParseError`] if the text is not a well-formed expression.
pub fn parse_expression(sql: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(sql)?;
    let e = p.parse_expr()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::new("unexpected trailing input", p.offset()));
    }
    Ok(e)
}
