//! Databases: named tables plus a shared, lock-guarded handle.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::error::{Result, StoreError};
use crate::query::Query;
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;
use crate::txn::UndoOp;
use crate::value::Value;

/// An in-memory (snapshot-persistable) relational database.
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// Undo log of the active transaction, if any. DML inside a transaction
    /// records its inverse here; DDL is intentionally non-transactional.
    pub(crate) txn: Option<Vec<UndoOp>>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StoreError::TableExists(name));
        }
        self.tables.insert(name.clone(), Table::new(name, schema));
        Ok(())
    }

    /// Drop a table entirely.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    /// Mutably borrow a table. Bypasses the transaction log — prefer the
    /// `insert/update/delete` methods on `Database` when a transaction may be
    /// active.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    /// True if a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Insert a row, transaction-aware.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<Value> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StoreError::NoSuchTable(table.to_owned()))?;
        let pk = t.insert(row)?;
        if let Some(log) = &mut self.txn {
            log.push(UndoOp::UnInsert {
                table: table.to_owned(),
                pk: pk.clone(),
            });
        }
        Ok(pk)
    }

    /// Update a row by primary key, transaction-aware.
    pub fn update(&mut self, table: &str, pk: &Value, row: Row) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StoreError::NoSuchTable(table.to_owned()))?;
        let old = t.update(pk, row)?;
        if let Some(log) = &mut self.txn {
            log.push(UndoOp::Restore {
                table: table.to_owned(),
                pk: pk.clone(),
                row: old,
            });
        }
        Ok(())
    }

    /// Delete a row by primary key, transaction-aware.
    pub fn delete(&mut self, table: &str, pk: &Value) -> Result<Row> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StoreError::NoSuchTable(table.to_owned()))?;
        let row = t.delete(pk)?;
        if let Some(log) = &mut self.txn {
            log.push(UndoOp::ReInsert {
                table: table.to_owned(),
                row: row.clone(),
            });
        }
        Ok(row)
    }

    /// Fetch by primary key.
    pub fn get(&self, table: &str, pk: &Value) -> Result<Option<&Row>> {
        Ok(self.table(table)?.get(pk))
    }

    /// Run a query against a table.
    pub fn query(&self, table: &str, query: &Query) -> Result<Vec<Row>> {
        query.run(self.table(table)?)
    }

    /// Total number of live rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    pub(crate) fn tables_sorted(&self) -> Vec<&Table> {
        let mut ts: Vec<&Table> = self.tables.values().collect();
        ts.sort_by_key(|t| t.name().to_owned());
        ts
    }

    pub(crate) fn insert_table_raw(&mut self, table: Table) {
        self.tables.insert(table.name().to_owned(), table);
    }
}

/// A cheaply clonable, thread-safe database handle.
///
/// QATK's pipeline stages (corpus loader, knowledge-base builder,
/// recommendation persister) share one database; a `std::sync::RwLock` keeps
/// readers concurrent and writers exclusive. Poisoning is recovered
/// (`PoisonError::into_inner`): a closure that panicked under the lock does
/// not make every later caller panic too.
#[derive(Debug, Clone, Default)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
}

impl SharedDatabase {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_database(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(RwLock::new(db)),
        }
    }

    /// Run a closure with shared (read) access.
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Run a closure with exclusive (write) access.
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.inner.write().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Cond;
    use crate::row;
    use crate::schema::SchemaBuilder;
    use crate::value::DataType;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .pk("id", DataType::Int)
            .col("name", DataType::Text)
            .build()
            .unwrap()
    }

    #[test]
    fn ddl_lifecycle() {
        let mut db = Database::new();
        db.create_table("parts", schema()).unwrap();
        assert!(db.has_table("parts"));
        assert!(matches!(
            db.create_table("parts", schema()),
            Err(StoreError::TableExists(_))
        ));
        db.create_table("codes", schema()).unwrap();
        assert_eq!(db.table_names(), vec!["codes", "parts"]);
        db.drop_table("codes").unwrap();
        assert!(matches!(
            db.drop_table("codes"),
            Err(StoreError::NoSuchTable(_))
        ));
        assert!(db.table("codes").is_err());
    }

    #[test]
    fn dml_roundtrip() {
        let mut db = Database::new();
        db.create_table("parts", schema()).unwrap();
        db.insert("parts", row![1i64, "radiator"]).unwrap();
        db.insert("parts", row![2i64, "fan"]).unwrap();
        assert_eq!(db.total_rows(), 2);
        assert!(db.get("parts", &Value::Int(1)).unwrap().is_some());

        db.update("parts", &Value::Int(2), row![2i64, "blower"])
            .unwrap();
        let q =
            Query::new().filter(Cond::eq(db.table("parts").unwrap(), "name", "blower").unwrap());
        assert_eq!(db.query("parts", &q).unwrap().len(), 1);

        db.delete("parts", &Value::Int(1)).unwrap();
        assert_eq!(db.total_rows(), 1);
        assert!(db.insert("ghost", row![1i64, "x"]).is_err());
        assert!(db.update("ghost", &Value::Int(1), row![1i64, "x"]).is_err());
        assert!(db.delete("ghost", &Value::Int(1)).is_err());
        assert!(db.get("ghost", &Value::Int(1)).is_err());
    }

    #[test]
    fn shared_database_concurrent_access() {
        let shared = SharedDatabase::new();
        shared.write(|db| db.create_table("parts", schema()).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    s.write(|db| db.insert("parts", row![i as i64, format!("p{i}")]).unwrap());
                    s.read(|db| db.total_rows())
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() >= 1);
        }
        assert_eq!(shared.read(|db| db.total_rows()), 8);
    }

    #[test]
    fn shared_database_recovers_from_a_poisoned_lock() {
        let shared = SharedDatabase::new();
        shared.write(|db| db.create_table("parts", schema()).unwrap());
        let s = shared.clone();
        let panicked = std::thread::spawn(move || {
            s.write(|db| {
                db.insert("parts", row![1i64, "p1".to_owned()]).unwrap();
                panic!("writer dies holding the lock");
            })
        })
        .join();
        assert!(panicked.is_err());
        // readers and writers after the panic still get the database
        assert_eq!(shared.read(|db| db.total_rows()), 1);
        shared.write(|db| db.insert("parts", row![2i64, "p2".to_owned()]).unwrap());
        assert_eq!(shared.read(|db| db.total_rows()), 2);
    }
}
